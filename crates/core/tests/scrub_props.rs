//! Scrubber properties: under arbitrary reachable workloads a full
//! scrub cycle on an *uncorrupted* database always reports clean and is
//! an observable no-op — and after a seeded in-memory corruption
//! (`SimMem`), one cycle detects it and rung-1 repair restores query
//! answers to scan equivalence.

use proptest::prelude::*;
use tchimera_core::{
    Attrs, ClassDef, ClassId, Database, MemFault, Oid, ScrubFinding, SimMem, Type, Value,
};

/// One step of a random workload (create / set_attr / migrate /
/// terminate / tick), reference-bearing so the refindex is exercised.
#[derive(Clone, Debug)]
enum Op {
    Tick(u64),
    Create { class: usize },
    SetFriend { target: usize, friend: usize },
    SetName { target: usize, n: u8 },
    Migrate { target: usize, class: usize },
    Terminate { target: usize },
}

const CLASSES: [&str; 3] = ["person", "employee", "manager"];

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..4).prop_map(Op::Tick),
        (0usize..CLASSES.len()).prop_map(|class| Op::Create { class }),
        (0usize..12, 0usize..12)
            .prop_map(|(target, friend)| Op::SetFriend { target, friend }),
        (0usize..12, any::<u8>()).prop_map(|(target, n)| Op::SetName { target, n }),
        (0usize..12, 0usize..CLASSES.len())
            .prop_map(|(target, class)| Op::Migrate { target, class }),
        (0usize..12).prop_map(|target| Op::Terminate { target }),
    ]
}

fn build_schema(db: &mut Database) {
    db.define_class(
        ClassDef::new("person")
            .attr("name", Type::temporal(Type::STRING))
            .attr("friend", Type::temporal(Type::object("person"))),
    )
    .unwrap();
    db.define_class(ClassDef::new("employee").isa("person")).unwrap();
    db.define_class(ClassDef::new("manager").isa("employee")).unwrap();
}

/// Run a workload; rejected operations are skipped (the properties
/// quantify over whatever states are reachable).
fn run_ops(ops: &[Op]) -> (Database, Vec<Oid>) {
    let mut db = Database::new();
    build_schema(&mut db);
    let mut oids: Vec<Oid> = Vec::new();
    run_more(&mut db, &mut oids, ops);
    (db, oids)
}

/// Continue a workload on an existing database.
fn run_more(db: &mut Database, oids: &mut Vec<Oid>, ops: &[Op]) {
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
                // Only reference live objects: the model checks
                // reference consistency (Definition 5.6) rather than
                // enforcing it, and these properties quantify over
                // *consistent* reachable states.
                if db.object(f).map(|o| o.lifespan.is_alive()) != Ok(true) {
                    continue;
                }
                let _ = db.set_attr(t, &"friend".into(), Value::Oid(f));
            }
            Op::SetName { target, n } => {
                if let Some(&t) = oids.get(target % oids.len().max(1)) {
                    let _ = db.set_attr(t, &"name".into(), Value::str(format!("n{n}")));
                }
            }
            Op::Migrate { target, class } => {
                if let Some(&t) = oids.get(target % oids.len().max(1)) {
                    let _ = db.migrate(t, &ClassId::from(CLASSES[*class]), Attrs::new());
                }
            }
            Op::Terminate { target } => {
                if let Some(&t) = oids.get(target % oids.len().max(1)) {
                    // Fresh instant, then null referrers, so termination
                    // keeps the database consistent (no dangling
                    // references, historical or current).
                    db.tick_by(1);
                    let referrers: Vec<Oid> = db.referrers_of(t);
                    for r in referrers {
                        if r != t && db.object(r).map(|o| o.lifespan.is_alive()) == Ok(true) {
                            let _ = db.set_attr(r, &"friend".into(), Value::Null);
                        }
                    }
                    let _ = db.terminate_object(t);
                }
            }
        }
    }
}

/// Phase 1 of a clean cycle over one class of `n` objects, each created
/// at its own tick: the items its two steps (extent, proper extent)
/// charged — also what they booked into `core.scrub.items` — checking
/// on the way that the cycle ran no linear-scan oracle.
fn clean_extent_phase_items(n: usize) -> u64 {
    let mut db = Database::new();
    db.define_class(ClassDef::new("item")).unwrap();
    for _ in 0..n {
        db.tick();
        db.create_object(&ClassId::from("item"), Attrs::new()).unwrap();
    }
    let scans = tchimera_core::scan_oracle_calls();
    let mut charges: Vec<u64> = Vec::new();
    let report = db.scrub_cycle_with(&mut |items| {
        charges.push(items);
        true
    });
    assert!(report.clean(), "{report:?}");
    assert_eq!(tchimera_core::scan_oracle_calls(), scans, "a clean cycle scanned every history");
    assert_eq!(report.items, charges.iter().sum::<u64>(), "booked items must be the charged ones");
    charges[0] + charges[1]
}

/// The extent phase pays for the events it compares, not for every
/// history at every boundary instant: per extent it touches `E` events,
/// `E` histories and the checkpoint members — at most `8·E` by the
/// `max(256, members/8)` spacing — so at most 10 items per event at any
/// size. The probe verifier it replaced did `instants × histories`, 64×
/// the work for 8× the objects, while booking only 8× more items.
/// (Booked items grow ≈ 20× here, not 8×: the checkpoint members are
/// 1.5·E at 1 000 objects and ≈ 7·E at 8 000.)
#[test]
fn extent_scrub_cost_is_linear_in_events_and_never_scans() {
    let small = clean_extent_phase_items(1_000);
    let large = clean_extent_phase_items(8_000);
    assert!(small <= 10 * 2 * 1_000, "{small} items for 2 000 events");
    assert!(large <= 10 * 2 * 8_000, "{large} items for 16 000 events");
    assert!(large < 32 * small, "8× the objects cost {large} / {small} items");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On an uncorrupted database, a full scrub cycle is clean and an
    /// observable no-op: the exported state image is identical before
    /// and after, and so is every repeated cycle.
    #[test]
    fn clean_scrub_is_a_clean_noop(ops in prop::collection::vec(arb_op(), 1..80)) {
        let (mut db, _) = run_ops(&ops);
        let before = db.export_state();
        let report = db.scrub_cycle();
        prop_assert!(report.clean(), "uncorrupted database reported dirty: {report:?}");
        prop_assert!(report.findings.is_empty());
        prop_assert_eq!(
            db.export_state(), before,
            "a clean scrub must not change observable state"
        );
        prop_assert!(db.quarantine().is_empty());
        // Idempotence: scrubbing a just-scrubbed database is also clean.
        let again = db.scrub_cycle();
        prop_assert!(again.clean());
    }

    /// A budget-limited scrub of an uncorrupted database never reports a
    /// divergence and never mutates state, no matter where it stops.
    #[test]
    fn budgeted_clean_scrub_never_lies(
        ops in prop::collection::vec(arb_op(), 1..60),
        cap in 0u64..20,
    ) {
        let (mut db, _) = run_ops(&ops);
        let before = db.export_state();
        let mut steps = 0u64;
        let report = db.scrub_cycle_with(&mut |_| { steps += 1; steps <= cap });
        prop_assert_eq!(report.divergences, 0, "partial scrub invented a divergence");
        prop_assert_eq!(db.export_state(), before);
    }

    /// After one seeded in-memory corruption of a derived structure, a
    /// full cycle detects it, repairs in place, and restores the
    /// database to export-identical health.
    #[test]
    fn corrupted_scrub_detects_and_repairs(
        ops in prop::collection::vec(arb_op(), 4..60),
        seed in any::<u64>(),
    ) {
        let (mut db, _) = run_ops(&ops);
        let before = db.export_state();
        let mut sim = SimMem::new(seed);
        prop_assert!(sim.corrupt_index(&mut db).is_some());
        let report = db.scrub_cycle();
        prop_assert!(
            report.divergences >= 1,
            "seeded corruption escaped a full cycle: {report:?}"
        );
        prop_assert!(report.fully_repaired(), "rung-1 damage not repaired: {report:?}");
        prop_assert_eq!(
            db.export_state(), before,
            "repair must restore the exact observable state"
        );
        prop_assert!(db.scrub_cycle().clean());
    }

    /// The maintained digest table — warmed at a random point of the
    /// workload and kept current by the write hooks from there — always
    /// agrees with the from-scratch walk; a seeded corruption of it is
    /// detected by `scrub_digest_table` every time, dropped, and the
    /// rebuilt table agrees again. Base state is never touched.
    #[test]
    fn corrupted_digest_table_is_detected_and_rebuilt(
        ops in prop::collection::vec(arb_op(), 4..60),
        warm_at in 0usize..60,
        seed in any::<u64>(),
    ) {
        let split = warm_at.min(ops.len());
        let (mut db, mut oids) = run_ops(&ops[..split]);
        prop_assert_eq!(db.state_digest(), db.digest_from_scratch());
        run_more(&mut db, &mut oids, &ops[split..]);
        let before = db.export_state();
        let mut clean = tchimera_core::ScrubReport::default();
        db.scrub_digest_table(db.digest_from_scratch(), &mut clean);
        prop_assert!(clean.clean() && clean.steps == 1, "healthy table reported dirty: {clean:?}");

        let mut sim = SimMem::new(seed);
        prop_assert_eq!(sim.corrupt_digest_table(&mut db), Some(MemFault::DigestTable));
        prop_assert_ne!(db.state_digest(), db.digest_from_scratch());
        let mut report = tchimera_core::ScrubReport::default();
        db.scrub_digest_table(db.digest_from_scratch(), &mut report);
        prop_assert_eq!(&report.findings, &vec![ScrubFinding::DigestTable]);
        prop_assert!(report.fully_repaired());
        prop_assert_eq!(db.state_digest(), db.digest_from_scratch());
        prop_assert_eq!(db.export_state(), before);
    }
}
