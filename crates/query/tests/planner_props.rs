//! Planner/executor equivalence properties: for randomly generated
//! databases and well-typed queries, the planned pipeline
//! ([`tchimera_query::execute_plan`]) returns exactly the rows — values
//! *and* order — of the reference evaluator
//! ([`tchimera_query::eval_select_naive`]), across `NOW`, `AS OF` and
//! `DURING` scopes, and regardless of partitioning or parallelism.
//!
//! The generated workload is *total*: every attribute evaluation is
//! defined (missing histories read as `null`, comparisons are total), so
//! planner/naive conjunct reordering cannot surface divergent errors —
//! any result mismatch is a genuine planner bug.

use proptest::prelude::*;
use tchimera_core::{attrs, Attrs, ClassDef, ClassId, Database, Instant, Oid, Type, Value};
use tchimera_query::ast::{CmpOp, Expr, Literal, OrderBy, Projection, Select, TimeSpec};
use tchimera_query::exec::{execute_plan, ExecOptions};
use tchimera_query::plan::plan_select;
use tchimera_query::{check_select, eval_select, eval_select_naive};

/// One mutation step, decoded from a seed tuple.
type OpSeed = (u8, i64, u8, u8);
/// One WHERE conjunct, decoded from a seed tuple.
type ConjSeed = (u8, u8, u8, i64, u8);

const VAR_NAMES: [&str; 3] = ["x", "y", "z"];

/// Two classes: `emp` with a temporal integer, a static integer drawn
/// from a tiny domain (duplicate sort keys) and a temporal reference, and
/// `mgr` isa `emp` with no attributes of its own — so `emp ↔ mgr`
/// migrations never drop attributes and evaluation stays total.
fn build_db(ops: &[OpSeed]) -> Database {
    let mut db = Database::new();
    db.define_class(
        ClassDef::new("emp")
            .attr("a", Type::temporal(Type::INTEGER))
            .attr("b", Type::INTEGER)
            .attr("r", Type::temporal(Type::object("emp"))),
    )
    .unwrap();
    db.define_class(ClassDef::new("mgr").isa("emp")).unwrap();
    db.advance_to(Instant(1)).unwrap();
    let mut oids: Vec<Oid> = Vec::new();
    for &(kind, x, y, z) in ops {
        let pick = |sel: u8| -> Option<Oid> {
            (!oids.is_empty()).then(|| oids[sel as usize % oids.len()])
        };
        match kind {
            0..=2 => {
                let base = attrs([("a", Value::Int(x)), ("b", Value::Int(x.rem_euclid(3)))]);
                let mut init = base.clone();
                if let Some(tgt) = pick(y) {
                    init.insert("r".into(), Value::Oid(tgt));
                }
                // The reference target may be rejected (e.g. terminated);
                // fall back to creating without one.
                let oid = db
                    .create_object(&ClassId::from("emp"), init)
                    .or_else(|_| db.create_object(&ClassId::from("emp"), base))
                    .unwrap();
                oids.push(oid);
            }
            3 => {
                if let Some(o) = pick(y) {
                    // May fail (terminated object); irrelevant to equivalence.
                    let _ = db.set_attr(o, &"a".into(), Value::Int(x));
                }
            }
            4 => {
                if let (Some(o), Some(tgt)) = (pick(y), pick(z)) {
                    let _ = db.set_attr(o, &"r".into(), Value::Oid(tgt));
                }
            }
            5 => {
                if let Some(o) = pick(y) {
                    let _ = db.migrate(o, &ClassId::from("mgr"), Attrs::new());
                }
            }
            6 => {
                if let Some(o) = pick(y) {
                    let _ = db.terminate_object(o);
                }
            }
            // Demotion: leaves `mgr` holding its values; a later kind-5
            // step re-hires it (a non-contiguous `mgr` membership).
            8 => {
                if let Some(o) = pick(y) {
                    let _ = db.migrate(o, &ClassId::from("emp"), Attrs::new());
                }
            }
            // A whole lifespan inside one tick: still a member at `now`.
            9 => {
                let init = attrs([("a", Value::Int(x)), ("b", Value::Int(x.rem_euclid(3)))]);
                let oid = db.create_object(&ClassId::from("emp"), init).unwrap();
                db.terminate_object(oid).unwrap();
                oids.push(oid);
            }
            _ => {
                db.tick_by(u64::from(z % 3) + 1);
            }
        }
    }
    db.tick_by(2);
    db
}

fn cmp_op(sel: u8) -> CmpOp {
    [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][sel as usize % 6]
}

fn attr_cmp(v: usize, op: u8, k: i64) -> Expr {
    Expr::Cmp(
        cmp_op(op),
        Box::new(Expr::Attr(VAR_NAMES[v].into(), "a".into())),
        Box::new(Expr::Lit(Literal::Int(k))),
    )
}

/// Decode one conjunct; `n` is the number of range variables.
fn conjunct(seed: ConjSeed, n: usize) -> Expr {
    let (kind, rv, ru, k, op) = seed;
    let v = rv as usize % n;
    let u = ru as usize % n;
    match kind {
        // Reference join `v.r = u` (falls back to an attr test when the
        // query has one variable).
        0 if n > 1 && u != v => Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Attr(VAR_NAMES[v].into(), "r".into())),
            Box::new(Expr::Var(VAR_NAMES[u].into())),
        ),
        // Attribute equi-join `v.a = u.a`.
        1 if n > 1 && u != v => Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Attr(VAR_NAMES[v].into(), "a".into())),
            Box::new(Expr::Attr(VAR_NAMES[u].into(), "a".into())),
        ),
        // Static small-domain test (duplicate keys, pushdown fodder).
        2 => Expr::Cmp(
            cmp_op(op),
            Box::new(Expr::Attr(VAR_NAMES[v].into(), "b".into())),
            Box::new(Expr::Lit(Literal::Int(k.rem_euclid(3)))),
        ),
        // Temporal quantifiers.
        3 => Expr::Sometime(Box::new(attr_cmp(v, op, k))),
        4 => Expr::Always(Box::new(attr_cmp(v, op, k))),
        // Boolean structure around total comparisons.
        5 => Expr::Not(Box::new(attr_cmp(v, op, k))),
        6 => Expr::Or(
            Box::new(attr_cmp(v, op, k)),
            Box::new(Expr::Defined(Box::new(Expr::Attr(
                VAR_NAMES[u].into(),
                "r".into(),
            )))),
        ),
        7 => Expr::IsMember(VAR_NAMES[v].into(), ClassId::from("mgr")),
        _ => attr_cmp(v, op, k),
    }
}

#[allow(clippy::too_many_arguments)]
fn build_query(
    nvars: usize,
    vclasses: &[u8],
    time: (u8, u64, u64),
    conjs: &[ConjSeed],
    projs: &[(u8, u8)],
    order: (u8, u8, u8),
    limit: (u8, u64),
) -> Select {
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
    let projections: Vec<(String, Projection)> = if projs[0].1 == 6 {
        vec![(VAR_NAMES[projs[0].0 as usize % nvars].to_owned(), Projection::Count)]
    } else {
        projs
            .iter()
            .map(|&(pv, pk)| {
                let var = VAR_NAMES[pv as usize % nvars].to_owned();
                let p = match pk {
                    0 => Projection::Var,
                    1 => Projection::Attr("a".into()),
                    2 => Projection::Attr("b".into()),
                    3 => Projection::ClassOf,
                    4 => Projection::LifespanOf,
                    _ => Projection::HistoryOf("a".into()),
                };
                (var, p)
            })
            .collect()
    };
    let order = (order.0 > 0).then(|| OrderBy {
        var: VAR_NAMES[order.1 as usize % nvars].to_owned(),
        attr: if order.2 == 0 { "a".into() } else { "b".into() },
        desc: order.0 == 2,
    });
    let limit = (limit.0 > 0).then_some(limit.1);
    Select { projections, vars, time, filter, order, limit }
}

/// Regression: when two classes tie on extent size, the candidate order
/// must not depend on declaration order or hash iteration — ties break
/// deterministically by class name.
#[test]
fn extent_size_ties_order_by_class_name() {
    let mut db = Database::new();
    // Declare the lexicographically *larger* class first so a
    // declaration-order tie-break would pick the wrong variable.
    db.define_class(ClassDef::new("zeta").attr("a", Type::temporal(Type::INTEGER))).unwrap();
    db.define_class(ClassDef::new("beta").attr("a", Type::temporal(Type::INTEGER))).unwrap();
    db.advance_to(Instant(1)).unwrap();
    for i in 0..5 {
        db.create_object(&ClassId::from("zeta"), attrs([("a", Value::Int(i))])).unwrap();
        db.create_object(&ClassId::from("beta"), attrs([("a", Value::Int(i))])).unwrap();
    }
    db.tick_by(1);
    let q = Select {
        projections: vec![("x".to_owned(), Projection::Var)],
        vars: vec![
            (ClassId::from("zeta"), "x".to_owned()),
            (ClassId::from("beta"), "y".to_owned()),
        ],
        time: TimeSpec::Now,
        filter: None,
        order: None,
        limit: None,
    };
    let plan = plan_select(&q);
    for _ in 0..8 {
        let (_, stats) = execute_plan(&db, &plan, &ExecOptions::default()).unwrap();
        assert_eq!(stats.order, vec![1, 0], "tie must resolve to 'beta' before 'zeta'");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The planned pipeline is row-for-row identical to the reference
    /// evaluator, and insensitive to partition boundaries and rayon.
    #[test]
    fn planner_matches_naive_evaluator(
        ops in prop::collection::vec((0u8..10, -2i64..4, 0u8..16, 0u8..8), 4..36),
        nvars in 1usize..4,
        vclasses in prop::collection::vec(0u8..2, 3),
        time in (0u8..3, 0u64..20, 0u64..16),
        conjs in prop::collection::vec((0u8..9, 0u8..3, 0u8..3, -2i64..4, 0u8..6), 0..3),
        projs in prop::collection::vec((0u8..3, 0u8..7), 1..3),
        order in (0u8..3, 0u8..3, 0u8..2),
        limit in (0u8..2, 0u64..5),
    ) {
        let db = build_db(&ops);
        let q = build_query(nvars, &vclasses, time, &conjs, &projs, order, limit);
        // Skip seeds decoding to ill-typed queries (e.g. COUNT + ORDER
        // BY); equivalence only speaks about typed queries. No `return`
        // here — the proptest shim inlines the body into its case loop.
        if check_select(db.schema(), &q).is_ok() {
            let naive = eval_select_naive(&db, &q).expect("workload is total");
            let planned = eval_select(&db, &q).expect("workload is total");
            prop_assert_eq!(&planned.columns, &naive.columns);
            prop_assert_eq!(&planned.rows, &naive.rows);

            // Partition boundaries and parallelism must not reorder rows.
            let plan = plan_select(&q);
            for opts in [
                ExecOptions { parallel: false, partitions: Some(1), ..Default::default() },
                ExecOptions { parallel: false, partitions: Some(3), ..Default::default() },
                ExecOptions::default(),
            ] {
                let (r, _) = execute_plan(&db, &plan, &opts).expect("workload is total");
                prop_assert_eq!(&r.rows, &naive.rows);
            }
        }
    }
}
