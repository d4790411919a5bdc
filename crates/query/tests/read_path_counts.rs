//! The index-seeded read path pays for the answer, not for the extent —
//! asserted as counts, in the style of `storage/tests/repl_incremental.rs`:
//! the same 50 holders of `dept = 'rare'` inside a 1 000-object and an
//! 8 000-object `emp` extent cost the same examined bindings and the same
//! governor units, return the reference evaluator's rows, and never
//! materialise the extent (`core.extent.at_current + at_replay` does not
//! move across the read). The scan path (`use_index: false`) still walks
//! the whole extent.
//!
//! It also pays for the rows it returns: a conjunct the probe answered is
//! not a check any more (`LevelStats::checks`), and `ORDER BY … LIMIT 10`
//! materialises ten rows whether 50 or 800 candidates competed. The
//! governor's units are pinned as literals: bindings and the probe and
//! per-candidate charges are what they were before the probe became the
//! answer; what fell is what is no longer done — the rows a top-k read
//! does not build and the event points a `DURING` read does not walk.
//!
//! The planner pays for what it keeps, not for the cross product: the
//! `e.boss = m` self-join runs as a hash probe and examines at least 10×
//! fewer bindings than `eval_select_naive` enumerates, and `LIMIT 10`
//! without `ORDER BY` stops after ten.
//!
//! The obs registry is process-wide, so the tests take turns: nothing
//! else in this binary runs between two counter reads.

use std::sync::{Mutex, MutexGuard};

use tchimera_core::{attrs, ClassDef, ClassId, Database, Instant, Type, Value};
use tchimera_query::ast::{Select, Stmt};
use tchimera_query::exec::{execute_plan, ExecOptions, ExecStats};
use tchimera_query::plan::{plan_select, PlannedQuery};
use tchimera_query::{eval_select_naive, parse, EvalError, ExecBudget, QueryResult};

const HOLDERS: i64 = 50;

static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// `n` employees; the first `holders` are in the rare department.
fn emp_db(n: i64, holders: i64) -> Database {
    let mut db = Database::new();
    db.define_class(
        ClassDef::new("emp")
            .attr("dept", Type::temporal(Type::STRING))
            .attr("v", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    db.advance_to(Instant(1)).unwrap();
    for i in 0..n {
        let dept = if i < holders { "rare" } else { "common" };
        db.create_object(
            &ClassId::from("emp"),
            attrs([("dept", Value::str(dept)), ("v", Value::Int(i))]),
        )
        .unwrap();
    }
    db.tick_by(2);
    db
}

fn select(src: &str) -> Select {
    match parse(src).unwrap() {
        Stmt::Select(s) => s,
        other => panic!("not a select: {other:?}"),
    }
}

/// Extents materialised so far (either way the index serves them).
fn extents_fetched() -> u64 {
    let snap = tchimera_core::obs::snapshot();
    snap.counter("core.extent.at_current").unwrap_or(0)
        + snap.counter("core.extent.at_replay").unwrap_or(0)
}

fn serial(use_index: bool, budget: Option<ExecBudget>) -> ExecOptions {
    ExecOptions { parallel: false, partitions: Some(1), budget, use_index }
}

/// The smallest limit of one budget resource an execution completes
/// under, i.e. what it charges of it (one partition, far below the
/// reconcile stride, so the final flush sees the exact total).
fn charged(
    db: &Database,
    plan: &PlannedQuery,
    use_index: bool,
    budget: impl Fn(u64) -> ExecBudget,
) -> u64 {
    let passes = |limit: u64| match execute_plan(db, plan, &serial(use_index, Some(budget(limit)))) {
        Ok(_) => true,
        Err(EvalError::Budget { .. }) => false,
        Err(e) => panic!("unexpected error: {e}"),
    };
    let (mut lo, mut hi) = (0u64, 1 << 20);
    assert!(passes(hi) && !passes(lo));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if passes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Governor cost units one execution charges.
fn units_charged(db: &Database, plan: &PlannedQuery, use_index: bool) -> u64 {
    charged(db, plan, use_index, |max_cost| ExecBudget { max_cost, ..ExecBudget::unlimited() })
}

struct Measured {
    rows: QueryResult,
    stats: ExecStats,
    units: u64,
    scan_stats: ExecStats,
    scan_units: u64,
}

fn measure(n: i64, src: &str) -> Measured {
    let db = emp_db(n, HOLDERS);
    let q = select(src);
    let plan = plan_select(&q);
    // Build the attribute index outside the measured read.
    execute_plan(&db, &plan, &serial(true, None)).unwrap();

    let before = extents_fetched();
    let (rows, stats) = execute_plan(&db, &plan, &serial(true, None)).unwrap();
    assert_eq!(
        extents_fetched(),
        before,
        "{src} over {n}: the index-seeded read materialised an extent"
    );
    assert_eq!(stats.vars[0].indexed, Some(HOLDERS as usize), "{src} over {n}");
    assert_eq!(stats.vars[0].extent, n as usize, "{src} over {n}: EXPLAIN's extent is a count");
    assert_eq!(rows.rows, eval_select_naive(&db, &q).unwrap().rows, "{src} over {n}");

    let before = extents_fetched();
    let (scan_rows, scan_stats) = execute_plan(&db, &plan, &serial(false, None)).unwrap();
    assert!(extents_fetched() > before, "{src} over {n}: the scan path fetches the extent");
    assert_eq!(scan_rows.rows, rows.rows, "{src} over {n}");

    Measured {
        units: units_charged(&db, &plan, true),
        scan_units: units_charged(&db, &plan, false),
        rows,
        stats,
        scan_stats,
    }
}

#[test]
fn an_index_seeded_read_costs_the_same_at_any_extent_size() {
    let _turn = turn();
    // (statement, checks left per candidate, cost units; the scan path
    // keeps every conjunct, except that the joint `DURING` filter was
    // never counted as a level check). A unit is
    // charged per probe (1 + holders), per binding and per row: 151 =
    // 1 + 50 + 50 + 50, as before the probe answered the conjunct. The
    // top-k read builds 10 rows, not 50 (was 151); the `DURING` read no
    // longer walks two event points per candidate (was 251); the last
    // statement keeps its `v > 24` check and returns 25 rows.
    for (src, checks, units, scan_checks) in [
        ("select e from emp e where e.dept = 'rare'", 0, 151, 1),
        ("select e, e.v from emp e where e.dept = 'rare' order by e.v desc limit 10", 0, 111, 1),
        ("select e from emp e as of 1 where e.dept = 'rare'", 0, 151, 1),
        ("select e from emp e during [1, 2] where e.dept = 'rare'", 0, 151, 0),
        ("select e from emp e where e.dept = 'rare' and e.v > 24", 1, 126, 2),
    ] {
        let small = measure(1_000, src);
        let large = measure(8_000, src);

        assert_eq!(small.rows.rows, large.rows.rows, "{src}: same holders, same rows");
        assert_eq!(small.stats.bindings, HOLDERS as u64, "{src}");
        assert_eq!(small.stats.bindings, large.stats.bindings, "{src}: bindings follow the answer");
        assert_eq!(small.units, units, "{src}");
        assert_eq!(small.units, large.units, "{src}: governor units follow the answer");
        for m in [&small, &large] {
            assert_eq!(m.stats.levels[0].checks, checks, "{src}: conjuncts the probe answered");
            assert_eq!(m.scan_stats.levels[0].checks, scan_checks, "{src}: the scan control");
        }

        // The scan path is the control: it walks (and is charged for) the
        // whole extent in scope, so its cost follows the class.
        assert!(small.scan_stats.bindings >= 500, "{src}: {}", small.scan_stats.bindings);
        assert!(
            large.scan_stats.bindings >= 4 * small.scan_stats.bindings,
            "{src}: scan {} vs {}",
            large.scan_stats.bindings,
            small.scan_stats.bindings
        );
        assert!(large.scan_units > small.scan_units, "{src}");
        assert!(small.scan_units > small.units, "{src}");
    }

    // Late materialisation: the rows (and row bytes) an `ORDER BY … LIMIT
    // 10` read is charged are the ten it returns, however many holders
    // competed for them.
    let topk = select("select e, e.v from emp e where e.dept = 'rare' order by e.v desc limit 10");
    let plan = plan_select(&topk);
    let charges = |holders: i64| {
        let db = emp_db(1_000, holders);
        let (rows, stats) = execute_plan(&db, &plan, &serial(true, None)).unwrap();
        assert_eq!(rows.rows, eval_select_naive(&db, &topk).unwrap().rows, "{holders} holders");
        assert_eq!((rows.len(), stats.bindings), (10, holders as u64));
        (
            charged(&db, &plan, true, |max_rows| ExecBudget { max_rows, ..ExecBudget::unlimited() }),
            charged(&db, &plan, true, |max_bytes| ExecBudget { max_bytes, ..ExecBudget::unlimited() }),
        )
    };
    let few = charges(HOLDERS);
    assert_eq!(few.0, 10, "rows charged are rows materialised");
    assert_eq!(charges(800), few, "800 holders are charged the rows of 50");
}

/// `n` employees; employee `i > 0` reports to employee `i / 2`.
fn org_db(n: i64) -> Database {
    let mut db = Database::new();
    db.define_class(
        ClassDef::new("emp")
            .attr("v", Type::temporal(Type::INTEGER))
            .attr("boss", Type::temporal(Type::object("emp"))),
    )
    .unwrap();
    db.advance_to(Instant(1)).unwrap();
    let mut oids = Vec::new();
    for i in 0..n {
        let mut init = attrs([("v", Value::Int(i))]);
        if i > 0 {
            init.insert("boss".into(), Value::Oid(oids[i as usize / 2]));
        }
        oids.push(db.create_object(&ClassId::from("emp"), init).unwrap());
    }
    db.tick_by(2);
    db
}

#[test]
fn a_planned_join_or_limit_examines_fewer_bindings_than_naive() {
    let _turn = turn();
    // `naive_bindings` is the cross product `eval_select_naive` walks.
    let run = |db: &Database, src: &str| {
        let q = select(src);
        let (rows, stats) = execute_plan(db, &plan_select(&q), &serial(true, None)).unwrap();
        assert_eq!(rows.rows, eval_select_naive(db, &q).unwrap().rows, "{src}");
        stats
    };
    for n in [100, 400] {
        let stats = run(&org_db(n), "select e, m from emp e, emp m where e.boss = m");
        assert_eq!(stats.naive_bindings, (n * n) as u128);
        assert!(
            u128::from(stats.bindings) * 10 <= stats.naive_bindings,
            "self-join over {n}: {} bindings vs naive {}",
            stats.bindings,
            stats.naive_bindings
        );
    }
    let limit = "select e, e.v from emp e where e.v >= 0 limit 10";
    for n in [1_000, 8_000] {
        let stats = run(&emp_db(n, HOLDERS), limit);
        assert!(u128::from(stats.bindings) < stats.naive_bindings, "limit over {n}");
        assert_eq!(stats.bindings, 10, "limit over {n}: the scan stops at ten");
    }
}
