//! Property tests for the governed query path: the full pipeline
//! (parse → typecheck → plan → execute) is total on arbitrary input.
//! Every statement either succeeds or returns a typed error — no panics
//! escape, even under a tiny budget that trips mid-execution — and a
//! governed statement that succeeds returns the rows of an ungoverned one.

use proptest::prelude::*;
use tchimera_query::{eval_select, parse, ExecBudget, Interpreter, Outcome, QueryError, Stmt};

/// A small populated interpreter so garbage that *does* parse has real
/// classes and objects to chew on.
fn seeded() -> Interpreter {
    let mut interp = Interpreter::new();
    interp
        .run_script(
            "define class e (v: integer, s: temporal(string)); \
             advance to 1; \
             create e (v := 1, s := 'a'); \
             create e (v := 2, s := 'b'); \
             tick 5; \
             set #0.v := 7;",
        )
        .expect("seed script");
    interp
}

proptest! {
    /// Total on garbage: arbitrary strings through the whole governed
    /// pipeline produce Ok or a typed error, never a panic.
    #[test]
    fn pipeline_is_total_on_garbage(src in ".{0,200}") {
        let mut interp = seeded();
        let _ = interp.run(&src);
        let _ = interp.run_script(&src);
    }

    /// Total on token-shaped garbage that names real classes and
    /// attributes — far higher hit rate on typecheck/plan/exec paths.
    #[test]
    fn pipeline_is_total_on_tokens(words in prop::collection::vec(
        prop_oneof![
            Just("select".to_owned()), Just("from".to_owned()),
            Just("where".to_owned()), Just("e".to_owned()),
            Just("x".to_owned()), Just("x.v".to_owned()),
            Just("x.s".to_owned()), Just("count".to_owned()),
            Just("history".to_owned()), Just("snapshot".to_owned()),
            Just("of".to_owned()), Just("as".to_owned()),
            Just("sometime".to_owned()), Just("always".to_owned()),
            Just("during".to_owned()), Just("and".to_owned()),
            Just("or".to_owned()), Just("not".to_owned()),
            Just("(".to_owned()), Just(")".to_owned()),
            Just("[".to_owned()), Just("]".to_owned()),
            Just(",".to_owned()), Just(";".to_owned()),
            Just("=".to_owned()), Just(">=".to_owned()),
            Just("#0".to_owned()), Just("'a'".to_owned()),
            Just("1".to_owned()), Just("7".to_owned()),
        ], 0..32))
    {
        let mut interp = seeded();
        let src = words.join(" ");
        let _ = interp.run(&src);
        let _ = interp.run_script(&src);
    }

    /// Well-formed selects under a tiny budget either finish or report
    /// BudgetExceeded/Cancelled — and the session stays usable after.
    /// Budget accounting never changes rows: whatever finishes, under the
    /// tiny budget or an unlimited one, matches ungoverned execution.
    #[test]
    fn tiny_budgets_fail_closed(
        max_bindings in 0u64..64,
        max_cost in 0u64..64,
        lo in 0u64..12,
        len in 0u64..12,
    ) {
        let mut interp = seeded();
        let queries = [
            "select x, y from e x, e y where x.v = y.v".to_owned(),
            format!("select history of x.s from e x during [{lo}, {}]", lo + len),
            "select count(x) from e x where sometime(x.v = 7)".to_owned(),
        ];
        let tiny = ExecBudget { max_bindings, max_cost, ..ExecBudget::default() };
        for budget in [tiny, ExecBudget::unlimited()] {
            interp.set_budget(budget);
            for q in &queries {
                let ungoverned = match parse(q).unwrap() {
                    Stmt::Select(s) => eval_select(interp.db(), &s).unwrap().rows,
                    other => panic!("not a select: {other:?}"),
                };
                match interp.run(q) {
                    Ok(Outcome::Table(t)) => prop_assert_eq!(&t.rows, &ungoverned, "{}", q),
                    Err(QueryError::BudgetExceeded { .. })
                    | Err(QueryError::Cancelled { .. }) => {}
                    other => panic!("{q} failed unexpectedly: {other:?}"),
                }
            }
        }
        // The governor must release its permit and leave the session live.
        interp.set_budget(ExecBudget::default());
        let out = interp.run("select count(x) from e x");
        prop_assert!(out.is_ok(), "session wedged after budget errors: {out:?}");
    }
}
