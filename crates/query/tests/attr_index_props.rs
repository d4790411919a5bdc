//! Attribute-value index equivalence properties (DESIGN.md §13): for
//! randomly generated databases and index-heavy queries, the executor
//! with index seeding enabled returns exactly the rows — values *and*
//! order — of the reference evaluator and of the scan path
//! (`use_index: false`), across `NOW`, `AS OF` and `DURING` scopes and
//! regardless of partitioning or parallelism. A covered probe is the
//! answer to its conjunct — the executor no longer re-evaluates it — so
//! these properties are what holds the probe to its exactness contract.
//!
//! The index is deliberately activated *mid-workload* (a warm probe
//! after a prefix of the mutations), so the remaining `set_attr` churn,
//! terminations and migrations exercise the incremental maintenance
//! hooks rather than a one-shot lazy build over final state. A
//! deterministic test also checks that DDL between probes invalidates
//! the cache and never serves stale candidates.

use proptest::prelude::*;
use tchimera_core::{
    attrs, Attrs, ClassDef, ClassId, Database, Instant, Interval, Oid, Type, Value,
};
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
/// `emp` and adds a temporal integer `c`. A demotion closes `c`'s history
/// and keeps it in the object (or drops the slot, when the whole run sat
/// inside the tick), a later promotion resumes or re-initialises it; no
/// *static* attribute is ever dropped, so evaluation stays total as long
/// as only `mgr` variables read `c`. `other` is outside the hierarchy and
/// declares the same attribute *names*: the index is keyed by name, so
/// its objects sit in the same index as the employees'.
fn define_schema(db: &mut Database) {
    db.define_class(
        ClassDef::new("emp")
            .attr("a", Type::temporal(Type::INTEGER))
            .attr("b", Type::INTEGER)
            .attr("r", Type::temporal(Type::object("emp"))),
    )
    .unwrap();
    db.define_class(
        ClassDef::new("mgr").isa("emp").attr("c", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    db.define_class(
        ClassDef::new("other")
            .attr("a", Type::temporal(Type::INTEGER))
            .attr("c", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
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

/// Probe `a` and `c` once: the first probe of an attribute builds (and
/// thereby *activates*) its index, so every later mutation exercises the
/// incremental write hooks. Asked of the database directly — a query over
/// a still-empty extent returns before it probes.
fn warm_index(db: &Database) {
    for (class, attr) in [("emp", "a"), ("mgr", "c")] {
        db.attr_index_probe(
            &ClassId::from(class),
            &attr.into(),
            &[Value::Int(0)],
            Interval::point(db.now()),
        )
        .expect("temporal declarations are covered");
    }
}

fn eq_attr(v: usize, attr: &str, k: i64) -> Expr {
    Expr::Cmp(
        CmpOp::Eq,
        Box::new(Expr::Attr(VAR_NAMES[v].into(), attr.into())),
        Box::new(Expr::Lit(Literal::Int(k))),
    )
}

fn eq_a(v: usize, k: i64) -> Expr {
    eq_attr(v, "a", k)
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

/// One step of a population built to trip the index-only path. The probe
/// answers per attribute *name*, the extent per *class*, and no conjunct
/// re-reads the object behind a holder any more, so every way the probe
/// and the extent can disagree, and every run boundary the holdings have
/// to get right by themselves, is generated on purpose —
///
/// * create-then-terminate inside one tick (the leave event lands at
///   `now + 1`, the object is still a member at `now`);
/// * demotion `mgr → emp`: the object leaves `mgr` but keeps holding its
///   `a` value, so a probe for `mgr x where x.a = k` returns it; its `c`
///   history is closed at `now − 1` and kept, or the slot dropped when
///   the run began this tick;
/// * promotion after a demotion: a re-hired, non-contiguous `mgr`
///   membership whose `c` history resumes (or is re-initialised);
/// * a same-instant replace (two `set`s in one tick: the first run leaves
///   no trace) and `set` then `terminate` in one tick (a run of length
///   one, `[now, now]`);
/// * a write of `null` (closes the run, opens nothing);
/// * a holder of the same value under the same attribute names in the
///   unrelated class `other`.
fn apply_hostile_op(db: &mut Database, oids: &mut Vec<Oid>, op: OpSeed) {
    let (kind, x, y, _) = op;
    let pick = |oids: &[Oid], sel: u8| -> Option<Oid> {
        (!oids.is_empty()).then(|| oids[sel as usize % oids.len()])
    };
    let (emp, mgr) = (ClassId::from("emp"), ClassId::from("mgr"));
    let init = attrs([("a", Value::Int(x)), ("b", Value::Int(x.rem_euclid(3)))]);
    let bonus = || attrs([("c", Value::Int(x))]);
    match kind {
        0..=3 => oids.push(db.create_object(&emp, init).unwrap()),
        4 => {
            let oid = db.create_object(&emp, init).unwrap();
            if y % 2 == 0 {
                db.migrate(oid, &mgr, bonus()).unwrap();
            }
            db.terminate_object(oid).unwrap();
            oids.push(oid);
        }
        5 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.set_attr(o, &"a".into(), Value::Int(x));
            }
        }
        6 | 7 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.migrate(o, &mgr, if y % 3 == 0 { Attrs::new() } else { bonus() });
            }
        }
        8 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.migrate(o, &emp, Attrs::new());
            }
        }
        9 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.terminate_object(o);
            }
        }
        10 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.set_attr(o, &"a".into(), Value::Int(x));
                let _ = db.set_attr(o, &"a".into(), Value::Int(x + 1));
            }
        }
        11 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.set_attr(o, &"a".into(), Value::Int(x));
                let _ = db.terminate_object(o);
            }
        }
        12 => {
            if let Some(o) = pick(oids, y) {
                let _ = db.set_attr(o, &"a".into(), Value::Null);
            }
        }
        13 => {
            // Only a current `mgr` declares `c`; anyone else refuses.
            if let Some(o) = pick(oids, y) {
                let _ = db.set_attr(o, &"c".into(), Value::Int(x));
            }
        }
        14 => {
            let init = attrs([("a", Value::Int(x)), ("c", Value::Int(x))]);
            db.create_object(&ClassId::from("other"), init).unwrap();
        }
        _ => {
            db.tick();
        }
    }
}

/// `v.attr = k` in one of the index-answerable shapes.
fn seeded_conjunct(v: usize, attr: &str, shape: u8, k: i64, at: u64) -> Expr {
    match shape % 3 {
        0 => eq_attr(v, attr, k),
        1 => Expr::Or(
            Box::new(eq_attr(v, attr, k)),
            Box::new(Expr::Or(
                Box::new(eq_attr(v, attr, k + 1)),
                Box::new(eq_attr(v, attr, k + 2)),
            )),
        ),
        _ => Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::AttrAt(VAR_NAMES[v].into(), attr.into(), at)),
            Box::new(Expr::Lit(Literal::Int(k))),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Index-only `NOW`, `AS OF t`, `DURING [a, b]` and `attr AT t` reads
    /// equal the reference evaluator row for row and in order on
    /// populations where probe and extent disagree, whatever the
    /// partitioning — and the scan path agrees too. Instants count back
    /// from `now + 1`, so they fall after `now`, on the ticks the
    /// population wrote at, and (at 0) before the first creation; windows
    /// are 1–6 ticks anywhere on that axis (so they end one tick before a
    /// run, start one tick after it, or straddle its boundary), and a
    /// variable carries one exact conjunct, two, or one the probe cannot
    /// answer beside one it can.
    ///
    /// Nothing re-evaluates an answered conjunct, so this is the test an
    /// off-by-one in the index has to fail. Mutation-checked, each of
    /// these fails it: in `AttrIndex::record_set_temporal`, closing the
    /// displaced run at `now` or at `now − 2` instead of `now − 1`, or
    /// keeping a trace of a run replaced within its own instant; in
    /// `record_terminate`, closing at `now − 1`; in `Holding::hits`,
    /// testing the open run against `[open_since + 1, now]` or
    /// `[open_since, now + 1]`, looking for a closed run from `lo + 1`,
    /// or accepting one that starts a tick after the window; a reconcile
    /// that forgets the object's old entries; and dropping the
    /// executor's membership check.
    #[test]
    fn seeded_reads_match_naive_where_probe_and_extent_disagree(
        ops in prop::collection::vec((0u8..18, 0i64..2, 0u8..16, 0u8..1), 8..48),
        warm_frac in 0usize..4,
        classes in (0u8..3, 0u8..3),
        nvars in 1usize..4,
        time in (0u8..3, 0u64..8, 0u64..6),
        shapes in (
            (0u8..8, 0i64..2, 0u64..8),
            (0u8..8, 0i64..2, 0u64..8),
            // A second conjunct on `x`: none, exact, or unanswerable.
            (0u8..4, 0u8..8, 0i64..2, 0u64..8),
        ),
        order in (0u8..3, 0u8..2),
        limit in (0u8..2, 1u64..5),
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
        let back = |d: u64| (db.now().ticks() + 1).saturating_sub(d);

        // One variable twice as often as two.
        let nvars = nvars.div_ceil(2);
        let class = |c: u8| if c < 2 { "emp" } else { "mgr" };
        let classes = [class(classes.0), class(classes.1)];
        let vars: Vec<(ClassId, String)> = classes[..nvars]
            .iter()
            .enumerate()
            .map(|(i, &c)| (ClassId::from(c), VAR_NAMES[i].to_owned()))
            .collect();
        // `c` is declared by `mgr` only.
        let attr = |v: usize, shape: u8| if shape >= 6 && classes[v] == "mgr" { "c" } else { "a" };
        let mut conjuncts: Vec<Expr> = [shapes.0, shapes.1][..nvars]
            .iter()
            .enumerate()
            .map(|(v, &(shape, k, at))| seeded_conjunct(v, attr(v, shape), shape, k, back(at)))
            .collect();
        let (second, shape, k, at) = shapes.2;
        match second {
            0 | 1 => {}
            2 => conjuncts.push(seeded_conjunct(0, attr(0, shape), shape, k, back(at))),
            _ => conjuncts.push(Expr::Not(Box::new(eq_a(0, k)))),
        }
        let exact = conjuncts.len() - usize::from(second == 3);
        let whole = conjuncts.len() == 1;
        let filter = conjuncts
            .into_iter()
            .reduce(|acc, c| Expr::And(Box::new(acc), Box::new(c)));
        let q = Select {
            projections: vec![
                (VAR_NAMES[nvars - 1].to_owned(), Projection::Var),
                (VAR_NAMES[0].to_owned(), Projection::Attr("a".into())),
            ],
            vars,
            time: match time.0 {
                0 => TimeSpec::Now,
                1 => TimeSpec::AsOf(back(time.1)),
                _ => TimeSpec::During(back(time.1), back(time.1) + time.2),
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
        prop_assert_eq!(plan.index_preds.len(), exact);
        for opts in [
            ExecOptions::default(),
            ExecOptions { parallel: false, partitions: Some(1), ..Default::default() },
            ExecOptions { parallel: false, partitions: Some(3), ..Default::default() },
            ExecOptions { parallel: true, partitions: Some(3), ..Default::default() },
            ExecOptions { use_index: false, partitions: Some(3), ..Default::default() },
        ] {
            let (r, stats) = execute_plan(&db, &plan, &opts).expect("workload is total");
            prop_assert_eq!(&r.rows, &naive.rows);
            // Seeded unless an extent in scope was empty (early return),
            // and every exact conjunct answered by its probe — under
            // `DURING` only when it is the whole filter.
            if stats.vars.iter().all(|v| v.extent > 0) && !stats.levels.is_empty() {
                let answered: usize = stats.vars.iter().map(|v| v.answered).sum();
                let checks: usize = stats.levels.iter().map(|l| l.checks).sum();
                if !opts.use_index {
                    prop_assert!(stats.vars.iter().all(|v| v.indexed.is_none()));
                    prop_assert_eq!(answered, 0);
                } else {
                    prop_assert!(stats.vars.iter().all(|v| v.indexed.is_some()));
                    if matches!(q.time, TimeSpec::During(..)) {
                        prop_assert_eq!(answered, usize::from(whole));
                    } else {
                        prop_assert_eq!(answered, exact);
                        prop_assert_eq!(checks, usize::from(nvars == 1 && second == 3));
                    }
                }
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
    // Only the oid is projected: with the conjunct answered by the probe
    // nothing in this read opens an object.
    let oid_only = |k: i64| Select {
        projections: vec![("x".to_owned(), Projection::Var)],
        ..build_query(1, &[0], (0, 0, 0), &[(6, 0, 0, k, 0)])
    };
    let plan = plan_select(&oid_only(1));
    let (rows, stats) = execute_plan(&db, &plan, &ExecOptions::default()).expect("healthy");
    assert!(stats.vars[0].indexed.is_some() && !rows.rows.is_empty());
    assert_eq!((stats.vars[0].answered, stats.levels[0].checks), (1, 0), "index-only");

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
    // Lifting it restores the read.
    assert!(db.unquarantine_class(&emp));
    let (again, stats) = execute_plan(&db, &plan, &ExecOptions::default()).expect("lifted");
    assert_eq!(again.rows, rows.rows);
    assert_eq!((stats.vars[0].answered, stats.levels[0].checks), (1, 0), "index-only again");

    // The fence of a *subclass* reaches an `emp` read too: one holder is
    // promoted to `mgr`, `mgr` is quarantined, and the read — which no
    // longer opens its holders to answer `x.a = 1` — is still refused on
    // that object, because with any class fenced the conjunct is kept and
    // evaluating it is what asks the object's own class.
    let mgr = ClassId::from("mgr");
    let holder = match &rows.rows[0][0] {
        Value::Oid(o) => *o,
        other => panic!("first projection is the oid, got {other:?}"),
    };
    db.migrate(holder, &mgr, Attrs::new()).unwrap();
    let (promoted, _) = execute_plan(&db, &plan, &ExecOptions::default()).expect("healthy");
    assert_eq!(promoted.rows, rows.rows, "a manager is an employee");
    assert!(db.quarantine_class(&mgr));
    for opts in [
        ExecOptions::default(),
        ExecOptions { use_index: false, ..Default::default() },
    ] {
        match execute_plan(&db, &plan, &opts) {
            Err(tchimera_query::EvalError::Model(tchimera_core::ModelError::Quarantined {
                class,
            })) => assert_eq!(class, mgr),
            other => panic!("expected Quarantined, got {other:?}"),
        }
    }
    // Holders of another value include no manager: that read is served,
    // every conjunct evaluated (nothing is index-only behind a fence).
    let (served, stats) =
        execute_plan(&db, &plan_select(&oid_only(2)), &ExecOptions::default()).expect("no manager");
    assert!(!served.rows.is_empty());
    assert_eq!((stats.vars[0].answered, stats.levels[0].checks), (0, 1));
    assert!(db.unquarantine_class(&mgr));
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
