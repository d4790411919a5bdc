//! Governor chaos: pathological queries, adversarial parser input and
//! mid-flight cancellation hammer the query layer **concurrently with**
//! a storage-fault scenario of the simulated world
//! (`governor/transient_bursts`). The point is
//! end-to-end robustness, not any single mechanism:
//!
//! * every pathological query terminates with a *typed* error
//!   (`BudgetExceeded` / `Cancelled`) — no panic, no hang;
//! * the storage engine keeps committing (or degrading read-only) under
//!   injected transient faults while the query side is melting down;
//! * afterwards the database is consistent (Definition 5.6), a normal
//!   query answers correctly, and the admission gauge is back to zero.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tchimera::query::{ExecBudget, Interpreter, Outcome, QueryError};
use tchimera::{Database, Value};

const SEED: u64 = 0x60BE12;
const OBJECTS_PER_CLASS: usize = 220;

/// Three classes with temporal attributes and history spread over many
/// ticks: an unfiltered 3-way cross product examines
/// `OBJECTS_PER_CLASS³` bindings (≈10.6M ≫ the 1M default budget).
fn chaos_db() -> Database {
    let mut interp = Interpreter::new();
    interp
        .run_script(
            "define class a (v: temporal(integer)); \
             define class b (v: temporal(integer)); \
             define class c (v: temporal(integer)); \
             advance to 1;",
        )
        .unwrap();
    for cls in ["a", "b", "c"] {
        for i in 0..OBJECTS_PER_CLASS {
            interp
                .run(&format!("create {cls} (v := {})", i % 7))
                .unwrap();
        }
        // Spread updates over time so full-history DURING scans have
        // real event points to recheck.
        interp.run("tick 10").unwrap();
        interp.run("set #0.v := 99").unwrap();
    }
    interp.run("tick 10").unwrap();
    interp.db().clone()
}

/// The pathological load a single query-side attacker thread runs.
/// Every outcome must be a typed error or a legitimate result.
fn attack(db: Database, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut interp = Interpreter::with_db(db);
    let now = interp.db().now().ticks();

    for round in 0..8 {
        match rng.gen_range(0..4u32) {
            // Deep unfiltered cross product over full history: must trip
            // the default budget, never hang or panic.
            0 => {
                let q = format!(
                    "select x, y, z from a x, b y, c z during [0, {now}]"
                );
                match interp.run(&q) {
                    Err(QueryError::BudgetExceeded { .. })
                    | Err(QueryError::Cancelled { .. }) => {}
                    Err(QueryError::Overloaded { .. }) => {}
                    other => panic!("cross product escaped the governor: {other:?}"),
                }
            }
            // Giant DURING window with a sometime recheck.
            1 => {
                let q = format!(
                    "select x, y from a x, b y during [0, {}] \
                     where sometime(x.v = y.v)",
                    now + 1000
                );
                match interp.run(&q) {
                    Ok(_)
                    | Err(QueryError::BudgetExceeded { .. })
                    | Err(QueryError::Cancelled { .. })
                    | Err(QueryError::Overloaded { .. }) => {}
                    Err(e) => panic!("DURING recheck failed oddly: {e}"),
                }
            }
            // Adversarial parser input: nesting far past the depth
            // limit must come back as an error, not a stack overflow.
            2 => {
                let deep = format!("select x from a x where {}x.v = 1{}",
                    "(".repeat(9_000), ")".repeat(9_000));
                assert!(interp.run(&deep).is_err(), "bogus nesting accepted");
                let garbage = "select ] during [[ sometime((( from ;;";
                assert!(interp.run(garbage).is_err(), "garbage accepted");
            }
            // Mid-flight cancellation from a sibling thread, then reset.
            _ => {
                let token = interp.cancel_token();
                let canceller = std::thread::spawn(move || token.cancel());
                let q = format!("select x, y, z from a x, b y, c z during [0, {now}]");
                match interp.run(&q) {
                    Err(QueryError::Cancelled { .. })
                    | Err(QueryError::BudgetExceeded { .. })
                    | Err(QueryError::Overloaded { .. }) => {}
                    other => panic!("round {round}: expected typed error, got {other:?}"),
                }
                canceller.join().unwrap();
                interp.cancel_token().reset();
            }
        }
    }

    // The session must still serve a normal query afterwards.
    interp.cancel_token().reset();
    match interp.run("select count(x) from a x where x.v = 0") {
        Ok(Outcome::Table(t)) => match &t.rows[0][0] {
            Value::Int(n) => assert!(*n > 0, "lost rows: {n}"),
            v => panic!("expected a count, got {v:?}"),
        },
        other => panic!("attacker session wedged: {other:?}"),
    }
}

#[test]
fn pathological_queries_and_storage_faults_dont_take_the_engine_down() {
    let db = chaos_db();
    let attackers: Vec<_> = (0..4)
        .map(|i| {
            let db = db.clone();
            std::thread::spawn(move || attack(db, SEED ^ i))
        })
        .collect();

    // Storage side, while the query side attacks: the simulated world's
    // engine keeps committing under bursts of transient faults (the
    // retry budget absorbs them; a longer one may surface — corruption
    // may not), and ends consistent and recoverable.
    tchimera::storage::sim::replay("governor/transient_bursts", 0);

    for a in attackers {
        a.join().expect("attacker thread panicked — governor leaked a panic");
    }

    // Query side settled: consistent, correct, and the admission gauge
    // is back to zero (no leaked permits).
    assert!(db.check_database().is_consistent());
    assert_eq!(db.admission().active(), 0, "admission permits leaked");
    let mut interp = Interpreter::with_db(db);
    match interp.run("select count(x) from b x").unwrap() {
        Outcome::Table(t) => {
            assert_eq!(t.rows[0][0], Value::Int(OBJECTS_PER_CLASS as i64));
        }
        o => panic!("expected a count, got {o:?}"),
    }
}

#[test]
fn overload_shedding_is_deterministic_under_a_cap_of_one() {
    let db = chaos_db();
    db.admission().set_cap(1);
    let holder = db.clone();
    let _permit = holder.admission().try_enter().expect("first permit");

    let mut interp = Interpreter::with_db(db.clone());
    match interp.run("select count(x) from a x") {
        Err(QueryError::Overloaded { active, cap }) => {
            assert_eq!((active, cap), (1, 1));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    drop(_permit);
    assert!(interp.run("select count(x) from a x").is_ok());
    assert_eq!(db.admission().active(), 0);
}

#[test]
fn budget_errors_carry_partial_progress() {
    let db = chaos_db();
    let mut interp = Interpreter::with_db(db);
    interp.set_budget(ExecBudget {
        max_bindings: 1000,
        ..ExecBudget::default()
    });
    let now = interp.db().now().ticks();
    match interp.run(&format!("select x, y, z from a x, b y, c z during [0, {now}]")) {
        Err(QueryError::BudgetExceeded {
            resource,
            spent,
            limit,
            progress,
        }) => {
            assert_eq!(limit, 1000);
            assert!(spent >= limit, "{spent} < {limit}");
            assert!(progress.bindings > 0, "no progress recorded");
            let _ = resource;
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}
