//! Property test: for ANY random workload, executing through the
//! persistent engine and recovering from the log yields a database with
//! the same state digest as the live one — i.e. recovery is exact. With
//! a checkpoint somewhere along the way, recovery starts from the
//! snapshot, replays exactly the tail, is just as exact, and the first
//! scrub cycle (which is where the snapshot's digest is checked) is clean.

use proptest::prelude::*;
use tchimera_core::{attrs, Attrs, ClassDef, ClassId, Oid, Type, Value};
use tchimera_storage::{digest_database, snapshot_path, PersistentDatabase};

#[derive(Clone, Debug)]
enum Op {
    Tick(u64),
    Create(usize),
    SetSalary(usize, i64),
    Migrate(usize, usize),
    Terminate(usize),
}

const CLASSES: [&str; 3] = ["person", "employee", "manager"];

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..4).prop_map(Op::Tick),
        (0usize..CLASSES.len()).prop_map(Op::Create),
        (0usize..8, 0i64..1000).prop_map(|(a, b)| Op::SetSalary(a, b)),
        (0usize..8, 0usize..CLASSES.len()).prop_map(|(a, b)| Op::Migrate(a, b)),
        (0usize..8).prop_map(Op::Terminate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recovery_is_exact_for_any_workload(
        ops in prop::collection::vec(arb_op(), 1..40),
        // Checkpoint before this op; past the end: never, full replay.
        cut in 0usize..60,
        salt in 0u64..u64::MAX,
    ) {
        let path = std::env::temp_dir().join(format!(
            "tchimera-prop-{}-{salt}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(snapshot_path(&path));
        let (live_digest, tail) = {
            let mut pdb = PersistentDatabase::open(&path).unwrap();
            pdb.define_class(ClassDef::new("person").attr("address", Type::STRING)).unwrap();
            pdb.define_class(
                ClassDef::new("employee").isa("person").attr("salary", Type::temporal(Type::INTEGER)),
            ).unwrap();
            pdb.define_class(ClassDef::new("manager").isa("employee")).unwrap();
            let mut oids: Vec<Oid> = Vec::new();
            let mut checkpointed_at = None;
            for (k, op) in ops.iter().enumerate() {
                if k == cut {
                    pdb.checkpoint().unwrap();
                    checkpointed_at = Some(pdb.op_count());
                }
                match op {
                    Op::Tick(n) => {
                        let t = tchimera_core::Instant(pdb.db().now().ticks() + n);
                        pdb.advance_to(t).unwrap();
                    }
                    Op::Create(c) => {
                        let cid = ClassId::from(CLASSES[*c]);
                        let init = if *c > 0 {
                            attrs([("salary", Value::Int(100))])
                        } else {
                            Attrs::new()
                        };
                        oids.push(pdb.create_object(&cid, init).unwrap());
                    }
                    Op::SetSalary(k, v) => {
                        if let Some(&i) = oids.get(k % oids.len().max(1)) {
                            let _ = pdb.set_attr(i, &"salary".into(), Value::Int(*v));
                        }
                    }
                    Op::Migrate(k, c) => {
                        if let Some(&i) = oids.get(k % oids.len().max(1)) {
                            let cid = ClassId::from(CLASSES[*c]);
                            let init = if *c > 0 {
                                attrs([("salary", Value::Int(1))])
                            } else {
                                Attrs::new()
                            };
                            let _ = pdb.migrate(i, &cid, init);
                        }
                    }
                    Op::Terminate(k) => {
                        if let Some(&i) = oids.get(k % oids.len().max(1)) {
                            let _ = pdb.terminate_object(i);
                        }
                    }
                }
            }
            pdb.sync().unwrap();
            (pdb.state_digest(), checkpointed_at.map(|at| pdb.op_count() - at))
        };
        let mut recovered = PersistentDatabase::open(&path).unwrap();
        prop_assert_eq!(recovered.recovered_from_snapshot(), tail.is_some());
        if let Some(tail) = tail {
            prop_assert_eq!(recovered.recovered_replayed(), tail);
        }
        prop_assert_eq!(recovered.state_digest(), live_digest);
        // The recovered database also satisfies the paper's invariants.
        prop_assert!(recovered.db().check_invariants().is_empty());
        prop_assert!(digest_database(recovered.db()) == live_digest);
        let scrub = recovered.scrub_cycle();
        prop_assert!(scrub.clean(), "recovered store does not scrub clean: {:?}", scrub);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(snapshot_path(&path)).ok();
    }
}
