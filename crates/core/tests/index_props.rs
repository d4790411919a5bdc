//! Equivalence properties of the indexed engines: under arbitrary
//! operation sequences, the time-sorted extent index, the
//! reverse-reference index and the parallel consistency checker must be
//! observationally identical to their naive linear-scan / serial
//! counterparts — and an index built in bulk from a state image must be
//! observationally identical to the one maintained write by write.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tchimera_core::{
    Attrs, ClassDef, ClassId, ConsistencyError, Database, Instant, Oid, Type, Value,
};

/// One step of a random workload. Unlike the model properties, this
/// workload stores *object references* (temporal and static) so the
/// reverse-reference index is exercised.
#[derive(Clone, Debug)]
enum Op {
    Tick(u64),
    Create { class: usize },
    SetFriend { target: usize, friend: usize },
    SetOwner { target: usize, owner: usize },
    Migrate { target: usize, class: usize },
    Terminate { target: usize },
}

const CLASSES: [&str; 4] = ["person", "employee", "manager", "vehicle"];

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..4).prop_map(Op::Tick),
        (0usize..CLASSES.len()).prop_map(|class| Op::Create { class }),
        (0usize..16, 0usize..16)
            .prop_map(|(target, friend)| Op::SetFriend { target, friend }),
        (0usize..16, 0usize..16).prop_map(|(target, owner)| Op::SetOwner { target, owner }),
        (0usize..16, 0usize..CLASSES.len())
            .prop_map(|(target, class)| Op::Migrate { target, class }),
        (0usize..16).prop_map(|target| Op::Terminate { target }),
    ]
}

fn build_schema(db: &mut Database) {
    db.define_class(
        ClassDef::new("person").attr("friend", Type::temporal(Type::object("person"))),
    )
    .unwrap();
    db.define_class(ClassDef::new("employee").isa("person")).unwrap();
    db.define_class(ClassDef::new("manager").isa("employee")).unwrap();
    db.define_class(ClassDef::new("vehicle").attr("owner", Type::object("person")))
        .unwrap();
}

/// Run a workload. Rejected operations (dead objects, type errors on a
/// reference to a non-person, cross-hierarchy migrations, …) are simply
/// skipped: the properties quantify over whatever states are reachable.
fn run_ops(ops: &[Op]) -> (Database, Vec<Oid>) {
    let mut db = Database::new();
    build_schema(&mut db);
    let mut oids: Vec<Oid> = Vec::new();
    apply_ops(&mut db, &mut oids, ops);
    (db, oids)
}

/// Continue a workload on `db`, whose objects so far are `oids`.
fn apply_ops(db: &mut Database, oids: &mut Vec<Oid>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Tick(n) => {
                db.tick_by(*n);
            }
            Op::Create { class } => {
                let i = db
                    .create_object(&ClassId::from(CLASSES[*class]), Attrs::new())
                    .expect("create must not fail");
                oids.push(i);
            }
            Op::SetFriend { target, friend } => {
                let (Some(&t), Some(&f)) = (
                    oids.get(target % oids.len().max(1)),
                    oids.get(friend % oids.len().max(1)),
                ) else {
                    continue;
                };
                let _ = db.set_attr(t, &"friend".into(), Value::Oid(f));
            }
            Op::SetOwner { target, owner } => {
                let (Some(&t), Some(&o)) = (
                    oids.get(target % oids.len().max(1)),
                    oids.get(owner % oids.len().max(1)),
                ) else {
                    continue;
                };
                let _ = db.set_attr(t, &"owner".into(), Value::Oid(o));
            }
            Op::Migrate { target, class } => {
                if let Some(&t) = oids.get(target % oids.len().max(1)) {
                    let _ = db.migrate(t, &ClassId::from(CLASSES[*class]), Attrs::new());
                }
            }
            Op::Terminate { target } => {
                if let Some(&t) = oids.get(target % oids.len().max(1)) {
                    let _ = db.terminate_object(t);
                }
            }
        }
    }
}

/// Naive reverse-reference computation: scan every object's state.
fn referrers_by_scan(db: &Database, target: Oid) -> Vec<Oid> {
    let mut v: Vec<Oid> = db
        .objects()
        .filter(|o| o.all_refs().contains(&target))
        .map(|o| o.oid)
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The indexed extent queries equal the linear scans at every probed
    /// instant and window, for every class (`π`, proper extents, DURING).
    #[test]
    fn extent_index_equals_scan(
        ops in prop::collection::vec(arb_op(), 1..80),
        probes in prop::collection::vec((0u64..80, 0u64..80), 4),
    ) {
        let (db, _) = run_ops(&ops);
        let now = db.now();
        for class in CLASSES {
            let c = db.class(&ClassId::from(class)).unwrap();
            for &(a, b) in &probes {
                let t = Instant(a);
                prop_assert_eq!(
                    c.ext_at(t, now),
                    c.ext_at_scan(t, now),
                    "ext_at diverged for `{}` at {:?}", class, t
                );
                prop_assert_eq!(
                    c.proper_ext_at(t, now),
                    c.proper_ext_at_scan(t, now),
                    "proper_ext_at diverged for `{}` at {:?}", class, t
                );
                let (lo, hi) = (Instant(a.min(b)), Instant(a.max(b)));
                prop_assert_eq!(
                    c.ext_during(lo, hi, now),
                    c.ext_during_scan(lo, hi, now),
                    "ext_during diverged for `{}` over [{:?},{:?}]", class, lo, hi
                );
            }
        }
    }

    /// The extent index agrees with the per-oid membership histories:
    /// `i ∈ ext(c, t)` iff `t ∈ c_lifespan(i, c)`.
    #[test]
    fn extent_index_agrees_with_membership(
        ops in prop::collection::vec(arb_op(), 1..60),
        t in 0u64..70,
    ) {
        let (db, oids) = run_ops(&ops);
        let now = db.now();
        let t = Instant(t);
        for class in CLASSES {
            let c = db.class(&ClassId::from(class)).unwrap();
            let ext = c.ext_at(t, now);
            for &i in &oids {
                prop_assert_eq!(
                    ext.contains(&i),
                    t <= now && c.membership_of(i, now).contains(t),
                    "index ↮ membership_of for {} in `{}` at {:?}", i, class, t
                );
            }
        }
    }

    /// The reverse-reference index equals a full-database scan, and the
    /// `O(affected)` incoming-reference check reports exactly the
    /// dangling references to the target that the global referential
    /// integrity check reports.
    #[test]
    fn reverse_reference_index_equals_scan(ops in prop::collection::vec(arb_op(), 1..80)) {
        let (db, oids) = run_ops(&ops);
        let global = db.check_referential_integrity();
        let targets: BTreeSet<Oid> = oids.iter().copied().collect();
        for &target in &targets {
            prop_assert_eq!(
                db.referrers_of(target),
                referrers_by_scan(&db, target),
                "referrers_of({}) diverged", target
            );
            let filtered: Vec<ConsistencyError> = global
                .errors
                .iter()
                .filter(|e| matches!(
                    e,
                    ConsistencyError::DanglingReference { target: t, .. } if *t == target
                ))
                .cloned()
                .collect();
            prop_assert_eq!(
                db.check_refs_to(target).errors,
                filtered,
                "check_refs_to({}) diverged from the global check", target
            );
            // The post-mutation combinator reports exactly the global
            // errors touching `target` (either side), each once.
            let mut around: Vec<String> = db
                .check_refs_around(target)
                .errors
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
            around.sort();
            let mut expected: Vec<String> = global
                .errors
                .iter()
                .filter(|e| matches!(
                    e,
                    ConsistencyError::DanglingReference { oid, target: t, .. }
                        if *oid == target || *t == target
                ))
                .map(|e| format!("{e:?}"))
                .collect();
            expected.sort();
            prop_assert_eq!(around, expected, "check_refs_around({}) diverged", target);
        }
        // The per-object outgoing checks compose to the global one.
        let mut composed: Vec<ConsistencyError> = Vec::new();
        for o in db.objects() {
            composed.extend(db.check_object_refs(o.oid).unwrap().errors);
        }
        prop_assert_eq!(composed, global.errors);
    }

    /// Bulk build ≡ incremental build, for the extent indexes and the
    /// reverse-reference index alike: a database imported from a state
    /// image (`Membership::from_histories`, `RefIndex::build`) answers
    /// every extent and referrer query like the database whose indexes
    /// followed each write — right after the import, and after both went
    /// on through the same further writes.
    #[test]
    fn bulk_built_indexes_equal_incrementally_maintained_ones(
        before in prop::collection::vec(arb_op(), 1..80),
        after in prop::collection::vec(arb_op(), 0..40),
        probes in prop::collection::vec((0u64..120, 0u64..120), 6),
    ) {
        let (mut live, mut oids) = run_ops(&before);
        let mut bulk = Database::import_state(live.export_state()).expect("import");
        let mut bulk_oids = oids.clone();
        for stage in ["imported", "continued"] {
            let now = live.now();
            prop_assert_eq!(bulk.now(), now);
            for class in CLASSES {
                let (l, b) = (
                    live.class(&ClassId::from(class)).unwrap(),
                    bulk.class(&ClassId::from(class)).unwrap(),
                );
                let edges = probes.iter().copied().chain([(0, now.ticks()), (now.ticks(), now.ticks() + 1)]);
                for (x, y) in edges {
                    let (t, lo, hi) = (Instant(x), Instant(x.min(y)), Instant(x.max(y)));
                    prop_assert_eq!(b.ext_at(t, now), l.ext_at(t, now), "{}: ext_at `{}` {:?}", stage, class, t);
                    prop_assert_eq!(b.ext_at(t, now), b.ext_at_scan(t, now));
                    prop_assert_eq!(b.proper_ext_at(t, now), l.proper_ext_at(t, now), "{}: proper_ext_at `{}` {:?}", stage, class, t);
                    prop_assert_eq!(b.ext_count_at(t, now), l.ext_count_at(t, now));
                    prop_assert_eq!(b.ext_during(lo, hi, now), l.ext_during(lo, hi, now), "{}: ext_during `{}` [{:?},{:?}]", stage, class, lo, hi);
                }
            }
            for &target in &oids {
                prop_assert_eq!(bulk.referrers_of(target), live.referrers_of(target), "{}: referrers_of({})", stage, target);
            }
            prop_assert_eq!(bulk.digest_from_scratch(), live.digest_from_scratch());
            // The scrubber, which rebuilds each index through the same
            // bulk builders, finds no index to repair on either side.
            for db in [&mut bulk, &mut live] {
                let report = db.scrub_cycle();
                prop_assert!(
                    report.extent_rebuilds == 0 && !report.refindex_rebuilt,
                    "{}: an index failed its scrub: {:?}", stage, report.findings
                );
            }
            apply_ops(&mut live, &mut oids, &after);
            apply_ops(&mut bulk, &mut bulk_oids, &after);
            prop_assert_eq!(&bulk_oids, &oids);
        }
    }

    /// The (by default parallel) database checker returns the same
    /// report — same errors, same order — as the serial reference, both
    /// on consistent databases and on fault-injected ones.
    #[test]
    fn parallel_check_equals_serial(ops in prop::collection::vec(arb_op(), 1..80)) {
        let (mut db, oids) = run_ops(&ops);
        prop_assert_eq!(db.check_database().errors, db.check_database_serial().errors);
        // Inject a fault: corrupt one object's friend history with a
        // wrongly-typed value, bypassing validation.
        if let Some(&victim) = oids.first() {
            let mut broken = db.object(victim).unwrap().clone();
            broken.attrs.insert(
                "friend".into(),
                Value::Temporal(tchimera_core::TemporalValue::starting_at(
                    Instant(0),
                    Value::Int(-1),
                )),
            );
            db.replace_object_for_test(broken);
            let par = db.check_database();
            let ser = db.check_database_serial();
            prop_assert_eq!(par.errors, ser.errors);
        }
    }
}
