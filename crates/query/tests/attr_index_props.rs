//! Attribute-value index equivalence properties (DESIGN.md §13): for
//! randomly generated databases and index-heavy queries, the executor
//! with index narrowing enabled returns exactly the rows — values *and*
//! order — of the reference evaluator and of the scan path
//! (`use_index: false`), across `NOW`, `AS OF` and `DURING` scopes and
//! regardless of partitioning or parallelism.
//!
//! The index is deliberately activated *mid-workload* (a warm probe
//! after a prefix of the mutations), so the remaining `set_attr` churn,
//! terminations and migrations exercise the incremental maintenance
//! hooks rather than a one-shot lazy build over final state. A
//! deterministic test also checks that DDL between probes invalidates
//! the cache and never serves stale candidates.

use proptest::prelude::*;
use tchimera_core::{attrs, Attrs, ClassDef, ClassId, Database, Instant, Oid, Type, Value};
use tchimera_query::ast::{CmpOp, Expr, Literal, Projection, Select, TimeSpec};
use tchimera_query::exec::{execute_plan, ExecOptions};
use tchimera_query::plan::plan_select;
use tchimera_query::{check_select, eval_select_naive};

/// One mutation step, decoded from a seed tuple.
type OpSeed = (u8, i64, u8, u8);
/// One WHERE conjunct, decoded from a seed tuple.
type ConjSeed = (u8, u8, u8, i64, u64);

const VAR_NAMES: [&str; 3] = ["x", "y", "z"];

/// Same shape as the planner properties: `emp` with a temporal integer
/// `a`, a static integer `b` and a temporal reference `r`; `mgr` isa
/// `emp` with nothing of its own, so migrations never drop attributes
/// and evaluation stays total.
fn define_schema(db: &mut Database) {
    db.define_class(
        ClassDef::new("emp")
            .attr("a", Type::temporal(Type::INTEGER))
            .attr("b", Type::INTEGER)
            .attr("r", Type::temporal(Type::object("emp"))),
    )
    .unwrap();
    db.define_class(ClassDef::new("mgr").isa("emp")).unwrap();
}

fn apply_op(db: &mut Database, oids: &mut Vec<Oid>, op: OpSeed) {
    let (kind, x, y, z) = op;
    let pick = |oids: &[Oid], sel: u8| -> Option<Oid> {
        (!oids.is_empty()).then(|| oids[sel as usize % oids.len()])
    };
    match kind {
        0..=2 => {
            let base = attrs([("a", Value::Int(x)), ("b", Value::Int(x.rem_euclid(3)))]);
            let mut init = base.clone();
            if let Some(tgt) = pick(oids, y) {
                init.insert("r".into(), Value::Oid(tgt));
            }
            let oid = db
                .create_object(&ClassId::from("emp"), init)
                .or_else(|_| db.create_object(&ClassId::from("emp"), base))
                .unwrap();
            oids.push(oid);
        }
        3 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.set_attr(o, &"a".into(), Value::Int(x));
            }
        }
        4 => {
            if let (Some(o), Some(tgt)) = (pick(oids, y), pick(oids, z)) {
                let _ = db.set_attr(o, &"r".into(), Value::Oid(tgt));
            }
        }
        5 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.migrate(o, &ClassId::from("mgr"), Attrs::new());
            }
        }
        6 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.terminate_object(o);
            }
        }
        _ => {
            db.tick_by(u64::from(z % 3) + 1);
        }
    }
}

/// A minimal probe-triggering query: `select x from emp x where x.a = 0`.
/// Running it through the planned pipeline with the index enabled builds
/// (and thereby *activates*) the attribute-value index on `a`, so every
/// later mutation exercises the incremental write hooks.
fn warm_index(db: &Database) {
    let q = Select {
        projections: vec![("x".to_owned(), Projection::Var)],
        vars: vec![(ClassId::from("emp"), "x".to_owned())],
        time: TimeSpec::Now,
        filter: Some(Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Attr("x".into(), "a".into())),
            Box::new(Expr::Lit(Literal::Int(0))),
        )),
        order: None,
        limit: None,
    };
    let plan = plan_select(&q);
    execute_plan(db, &plan, &ExecOptions::default()).expect("warm probe is total");
}

fn eq_a(v: usize, k: i64) -> Expr {
    Expr::Cmp(
        CmpOp::Eq,
        Box::new(Expr::Attr(VAR_NAMES[v].into(), "a".into())),
        Box::new(Expr::Lit(Literal::Int(k))),
    )
}

/// Decode one conjunct; weighted toward index-eligible shapes.
fn conjunct(seed: ConjSeed, n: usize) -> Expr {
    let (kind, rv, ru, k, t) = seed;
    let v = rv as usize % n;
    let u = ru as usize % n;
    match kind {
        // Membership `Or`-chain on the indexed attribute.
        0 => Expr::Or(Box::new(eq_a(v, k)), Box::new(eq_a(v, k + 1))),
        // Point probe `v.a at t = k`.
        1 => Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::AttrAt(VAR_NAMES[v].into(), "a".into(), t % 24)),
            Box::new(Expr::Lit(Literal::Int(k))),
        ),
        // Reference join — index narrowing must still seed join order
        // correctly (falls back to an equality when unary).
        2 if n > 1 && u != v => Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Attr(VAR_NAMES[v].into(), "r".into())),
            Box::new(Expr::Var(VAR_NAMES[u].into())),
        ),
        // Uncovered: static attribute (scan fallback)...
        3 => Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Attr(VAR_NAMES[v].into(), "b".into())),
            Box::new(Expr::Lit(Literal::Int(k.rem_euclid(3)))),
        ),
        // ...negation (not an index shape, still routed as prefilter)...
        4 => Expr::Not(Box::new(eq_a(v, k))),
        // ...and a membership test.
        5 => Expr::IsMember(VAR_NAMES[v].into(), ClassId::from("mgr")),
        // Plain indexed equality (the common case).
        _ => eq_a(v, k),
    }
}

fn build_query(nvars: usize, vclasses: &[u8], time: (u8, u64, u64), conjs: &[ConjSeed]) -> Select {
    let vars: Vec<(ClassId, String)> = (0..nvars)
        .map(|i| {
            let class = if vclasses[i] == 0 { "emp" } else { "mgr" };
            (ClassId::from(class), VAR_NAMES[i].to_owned())
        })
        .collect();
    let time = match time.0 {
        0 => TimeSpec::Now,
        1 => TimeSpec::AsOf(time.1),
        _ => TimeSpec::During(time.1, time.1 + time.2),
    };
    let filter = conjs
        .iter()
        .map(|&seed| conjunct(seed, nvars))
        .reduce(|acc, c| Expr::And(Box::new(acc), Box::new(c)));
    let projections = vec![
        (VAR_NAMES[0].to_owned(), Projection::Var),
        (VAR_NAMES[0].to_owned(), Projection::Attr("a".into())),
    ];
    Select { projections, vars, time, filter, order: None, limit: None }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Index narrowing is row-for-row identical to both the reference
    /// evaluator and the scan path, with the index kept hot through
    /// `set_attr` churn, terminations and migrations.
    #[test]
    fn index_matches_scan_under_churn(
        ops in prop::collection::vec((0u8..8, -2i64..4, 0u8..16, 0u8..8), 6..36),
        warm_frac in 0usize..4,
        nvars in 1usize..4,
        vclasses in prop::collection::vec(0u8..2, 3),
        time in (0u8..3, 0u64..20, 0u64..16),
        conjs in prop::collection::vec((0u8..7, 0u8..3, 0u8..3, -2i64..4, 0u64..24), 1..3),
    ) {
        let mut db = Database::new();
        define_schema(&mut db);
        db.advance_to(Instant(1)).unwrap();
        let mut oids = Vec::new();
        // Activate the index after a random prefix of the workload so
        // the suffix runs through the incremental maintenance hooks.
        let warm_at = ops.len() * warm_frac / 4;
        for (i, &op) in ops.iter().enumerate() {
            if i == warm_at {
                warm_index(&db);
            }
            apply_op(&mut db, &mut oids, op);
        }
        db.tick_by(2);

        let q = build_query(nvars, &vclasses, time, &conjs);
        if check_select(db.schema(), &q).is_ok() {
            let naive = eval_select_naive(&db, &q).expect("workload is total");
            let plan = plan_select(&q);
            for opts in [
                ExecOptions::default(),
                ExecOptions { parallel: false, partitions: Some(1), ..Default::default() },
                ExecOptions { parallel: false, partitions: Some(3), ..Default::default() },
                ExecOptions { use_index: false, ..Default::default() },
            ] {
                let (r, _) = execute_plan(&db, &plan, &opts).expect("workload is total");
                prop_assert_eq!(&r.rows, &naive.rows);
            }
        }
    }
}

/// One step of a population built to trip the index-seeded path: the
/// probe answers per attribute *name*, the extent per *class*, so every
/// way the two can disagree is generated on purpose —
///
/// * create-then-terminate inside one tick (the leave event lands at
///   `now + 1`, the object is still a member at `now`);
/// * demotion `mgr → emp`: the object leaves `mgr` but keeps holding its
///   `a` value, so a probe for `mgr x where x.a = k` returns it;
/// * promotion after a demotion: a re-hired, non-contiguous `mgr`
///   membership.
fn apply_hostile_op(db: &mut Database, oids: &mut Vec<Oid>, op: OpSeed) {
    let (kind, x, y, _) = op;
    let pick = |oids: &[Oid], sel: u8| -> Option<Oid> {
        (!oids.is_empty()).then(|| oids[sel as usize % oids.len()])
    };
    let emp = ClassId::from("emp");
    let init = attrs([("a", Value::Int(x)), ("b", Value::Int(x.rem_euclid(3)))]);
    match kind {
        0 | 1 => oids.push(db.create_object(&emp, init).unwrap()),
        2 => {
            let oid = db.create_object(&emp, init).unwrap();
            if y % 2 == 0 {
                db.migrate(oid, &ClassId::from("mgr"), Attrs::new()).unwrap();
            }
            db.terminate_object(oid).unwrap();
            oids.push(oid);
        }
        3 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.set_attr(o, &"a".into(), Value::Int(x));
            }
        }
        4 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.migrate(o, &ClassId::from("mgr"), Attrs::new());
            }
        }
        5 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.migrate(o, &emp, Attrs::new());
            }
        }
        6 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.terminate_object(o);
            }
        }
        _ => {
            db.tick();
        }
    }
}

/// `v.a = k` in one of the index-answerable shapes.
fn seeded_conjunct(v: usize, shape: u8, k: i64, at: u64) -> Expr {
    match shape % 3 {
        0 => eq_a(v, k),
        1 => Expr::Or(
            Box::new(eq_a(v, k)),
            Box::new(Expr::Or(Box::new(eq_a(v, k + 1)), Box::new(eq_a(v, k + 2)))),
        ),
        _ => Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::AttrAt(VAR_NAMES[v].into(), "a".into(), at)),
            Box::new(Expr::Lit(Literal::Int(k))),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Index-seeded `NOW`, `AS OF t`, `DURING [a, b]` and `attr AT t`
    /// reads equal the reference evaluator row for row and in order on
    /// populations where probe and extent disagree, whatever the
    /// partitioning — and the scan path agrees too.
    #[test]
    fn seeded_reads_match_naive_where_probe_and_extent_disagree(
        ops in prop::collection::vec((0u8..8, -1i64..3, 0u8..16, 0u8..1), 8..48),
        warm_frac in 0usize..4,
        classes in (0u8..2, 0u8..2),
        nvars in 1usize..3,
        time in (0u8..3, 0u64..14, 0u64..6),
        shapes in ((0u8..3, -1i64..3, 0u64..14), (0u8..3, -1i64..3, 0u64..14)),
        order in (0u8..3, 0u8..2),
        limit in (0u8..2, 0u64..4),
    ) {
        let mut db = Database::new();
        define_schema(&mut db);
        db.advance_to(Instant(1)).unwrap();
        let mut oids = Vec::new();
        let warm_at = ops.len() * warm_frac / 4;
        for (i, &op) in ops.iter().enumerate() {
            if i == warm_at {
                warm_index(&db);
            }
            apply_hostile_op(&mut db, &mut oids, op);
        }
        // No closing tick: trailing same-tick terminations stay members.

        let class = |c: u8| ClassId::from(if c == 0 { "emp" } else { "mgr" });
        let vars: Vec<(ClassId, String)> = [classes.0, classes.1][..nvars]
            .iter()
            .enumerate()
            .map(|(i, &c)| (class(c), VAR_NAMES[i].to_owned()))
            .collect();
        let filter = [shapes.0, shapes.1][..nvars]
            .iter()
            .enumerate()
            .map(|(v, &(shape, k, at))| seeded_conjunct(v, shape, k, at))
            .reduce(|acc, c| Expr::And(Box::new(acc), Box::new(c)));
        let q = Select {
            projections: vec![
                (VAR_NAMES[nvars - 1].to_owned(), Projection::Var),
                (VAR_NAMES[0].to_owned(), Projection::Attr("a".into())),
            ],
            vars,
            time: match time.0 {
                0 => TimeSpec::Now,
                1 => TimeSpec::AsOf(time.1),
                _ => TimeSpec::During(time.1, time.1 + time.2),
            },
            filter,
            order: (order.0 > 0).then(|| tchimera_query::ast::OrderBy {
                var: VAR_NAMES[order.1 as usize % nvars].to_owned(),
                attr: "b".into(),
                desc: order.0 == 2,
            }),
            limit: (limit.0 > 0).then_some(limit.1),
        };
        check_select(db.schema(), &q).expect("generated queries are well typed");
        let naive = eval_select_naive(&db, &q).expect("workload is total");
        let plan = plan_select(&q);
        prop_assert_eq!(plan.index_preds.len(), nvars);
        for opts in [
            ExecOptions::default(),
            ExecOptions { parallel: false, partitions: Some(1), ..Default::default() },
            ExecOptions { parallel: false, partitions: Some(3), ..Default::default() },
            ExecOptions { parallel: true, partitions: Some(3), ..Default::default() },
            ExecOptions { use_index: false, partitions: Some(3), ..Default::default() },
        ] {
            let (r, stats) = execute_plan(&db, &plan, &opts).expect("workload is total");
            prop_assert_eq!(&r.rows, &naive.rows);
            // Seeded unless an extent in scope was empty (early return).
            if opts.use_index && stats.vars.iter().all(|v| v.extent > 0) {
                prop_assert!(stats.vars.iter().all(|v| v.indexed.is_some()));
            }
        }
    }
}

/// The quarantine fence sits in front of the seeded path too: a read of
/// a quarantined class whose predicate the index covers is refused, not
/// answered from the probe.
#[test]
fn seeded_read_of_a_quarantined_class_is_refused() {
    let mut db = Database::new();
    define_schema(&mut db);
    db.advance_to(Instant(1)).unwrap();
    let mut oids = Vec::new();
    for i in 0..12 {
        apply_op(&mut db, &mut oids, (0, i % 3, 0, 0));
    }
    db.tick_by(1);
    warm_index(&db);
    let q = build_query(1, &[0], (0, 0, 0), &[(6, 0, 0, 1, 0)]);
    let plan = plan_select(&q);
    let (rows, stats) = execute_plan(&db, &plan, &ExecOptions::default()).expect("healthy");
    assert!(stats.vars[0].indexed.is_some() && !rows.rows.is_empty());

    let emp = ClassId::from("emp");
    assert!(db.quarantine_class(&emp));
    for opts in [
        ExecOptions::default(),
        ExecOptions { use_index: false, ..Default::default() },
    ] {
        match execute_plan(&db, &plan, &opts) {
            Err(tchimera_query::EvalError::Model(tchimera_core::ModelError::Quarantined {
                class,
            })) => assert_eq!(class, emp),
            other => panic!("expected Quarantined, got {other:?}"),
        }
    }
    // A class above the fence keeps serving; lifting it restores the read.
    assert!(db.unquarantine_class(&emp));
    let (again, _) = execute_plan(&db, &plan, &ExecOptions::default()).expect("lifted");
    assert_eq!(again.rows, rows.rows);
}

/// DDL between probes bumps the schema generation; the next probe must
/// rebuild rather than serve candidates indexed under the old schema.
#[test]
fn ddl_invalidation_never_serves_stale_candidates() {
    let mut db = Database::new();
    define_schema(&mut db);
    db.advance_to(Instant(1)).unwrap();
    let mut oids = Vec::new();
    for i in 0..20 {
        apply_op(&mut db, &mut oids, (0, i % 4, 0, 0));
    }
    warm_index(&db);

    // DDL bumps the generation while the cache is hot...
    db.define_class(ClassDef::new("dept")).unwrap();
    // ...and further churn lands while the stale cache is still live.
    db.tick_by(1);
    for (i, &o) in oids.iter().enumerate() {
        if i % 3 == 0 {
            db.set_attr(o, &"a".into(), Value::Int(9)).unwrap();
        }
    }
    db.tick_by(1);

    let q = build_query(1, &[0], (0, 0, 0), &[(6, 0, 0, 9, 0)]);
    let naive = eval_select_naive(&db, &q).expect("total");
    let plan = plan_select(&q);
    let (indexed, stats) =
        execute_plan(&db, &plan, &ExecOptions::default()).expect("total");
    assert_eq!(indexed.rows, naive.rows);
    // The probe went through the index (not a silent fallback) and saw
    // the post-DDL, post-churn state.
    assert_eq!(stats.vars[0].indexed, Some(indexed.rows.len()));
}
