//! Cross-crate replication: a log-shipping follower serving governed,
//! staleness-bounded TCQL reads through a read-only session, and a
//! follower whose log is the primary's, byte for byte.
//!
//! The storage layer guarantees the follower's database is a
//! committed-boundary copy of the primary (`crates/storage/tests/
//! repl_chaos.rs` proves convergence under faults); this test wires that
//! copy to the query layer: `Replica::read_view` bounds how stale a
//! served view may be, and `ReplicaSession` refuses every mutating
//! statement so reads can never fork the follower's state.

use std::path::PathBuf;
use std::sync::Arc;

use tchimera_core::{ClassDef, Instant, Type, Value};
use tchimera_query::{Outcome, QueryError, ReplicaSession};
use tchimera_storage::repl::{Primary, Replica, ReplicaError, SimNetConfig, SimTransport};
use tchimera_storage::{PersistentDatabase, SimFs, Vfs};

fn open(name: &str) -> PersistentDatabase {
    let vfs: Arc<dyn Vfs> = Arc::new(SimFs::new());
    PersistentDatabase::open_with(vfs, &PathBuf::from(name)).expect("open")
}

/// Pump both ends until the replica is fully caught up.
fn quiesce<T: tchimera_storage::repl::Transport>(p: &mut Primary<T>, r: &mut Replica<T>) {
    for _ in 0..100 {
        p.pump().unwrap();
        r.pump().unwrap();
        if r.lag() == 0 && r.applied() == p.db().op_count() as u64 {
            return;
        }
    }
    panic!("replica failed to catch up on a clean link");
}

#[test]
fn replica_serves_governed_reads_and_refuses_writes() {
    let (pt, rt) = SimTransport::pair(42, SimNetConfig::clean());
    let link = pt.clone();
    let mut primary = Primary::new(open("primary.log"), 1, pt);
    let mut replica = Replica::new(open("replica.log"), rt);

    // Seed a schema and some history on the primary.
    primary
        .db()
        .txn(|t| {
            t.define_class(
                ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)),
            )?;
            t.advance_to(Instant(1))?;
            Ok(())
        })
        .unwrap();
    for i in 0..4 {
        let salary = Value::Int(100 + i);
        primary
            .db()
            .txn(|t| {
                t.create_object(
                    &"employee".into(),
                    tchimera_core::attrs([("salary", salary.clone())]),
                )?;
                t.tick()?;
                Ok(())
            })
            .unwrap();
    }
    quiesce(&mut primary, &mut replica);

    // A fully caught-up replica serves queries at staleness bound 0,
    // and they agree with the primary's own view.
    let mut session = ReplicaSession::new();
    let view = replica.read_view(0).expect("lag 0 view");
    match session.run(view, "select e, e.salary from employee e where e.salary > 101") {
        Ok(Outcome::Table(t)) => assert_eq!(t.len(), 2),
        other => panic!("expected rows from the replica, got {other:?}"),
    }
    match session.run(view, "check consistency") {
        Ok(Outcome::Consistency(r)) => assert!(r.is_consistent()),
        other => panic!("expected consistency report, got {other:?}"),
    }

    // Every mutating statement is refused at the language level,
    // leaving the replica's digest untouched.
    let digest = replica.db_ref().state_digest();
    for src in ["tick 1", "set #0.salary := 1", "terminate #1", "drop class employee"] {
        let view = replica.read_view(0).unwrap();
        match session.run(view, src) {
            Err(QueryError::ReadOnly { .. }) => {}
            other => panic!("{src:?}: expected ReadOnly refusal, got {other:?}"),
        }
    }
    assert_eq!(replica.db_ref().state_digest(), digest);

    // The primary races ahead while the link is down: the staleness
    // bound starts refusing, an explicitly loose bound still serves.
    link.set_partitioned(true);
    for _ in 0..3 {
        primary.db().txn(|t| { t.tick()?; Ok(()) }).unwrap();
        primary.pump().unwrap();
    }
    link.set_partitioned(false);
    primary.pump().unwrap(); // heartbeat tells the replica how far behind it is
    replica.pump().unwrap();
    assert!(replica.lag() > 0);
    match replica.read_view(0) {
        Err(ReplicaError::TooStale { lag, max_lag }) => {
            assert!(lag > 0);
            assert_eq!(max_lag, 0);
        }
        Err(other) => panic!("unexpected refusal: {other}"),
        Ok(_) => panic!("stale view served despite a zero staleness bound"),
    }
    let loose = replica.read_view(100).expect("loose bound tolerates lag");
    assert!(matches!(
        session.run(loose, "select e from employee e"),
        Ok(Outcome::Table(_))
    ));

    // Catch back up: the strict bound serves again and both sides agree.
    quiesce(&mut primary, &mut replica);
    let view = replica.read_view(0).unwrap();
    match session.run(view, "select e from employee e") {
        Ok(Outcome::Table(t)) => assert_eq!(t.len(), 4),
        other => panic!("expected rows, got {other:?}"),
    }
    assert_eq!(
        replica.db_ref().state_digest(),
        primary.db_ref().state_digest()
    );
}

/// A fresh follower that catches up holds the primary's log byte for
/// byte — from an uncompacted primary (records are shipped and appended
/// verbatim) and from one checkpointed past it (the log is shipped from
/// byte 0, image included, and installed as it is) — and reopening it
/// from that log alone gives the primary's state.
#[test]
fn a_caught_up_follower_logs_the_primary_s_bytes() {
    for checkpoint in [false, true] {
        let (pfs, rfs) = (SimFs::new(), SimFs::new());
        let path = PathBuf::from("node.log");
        let open_on = |fs: &SimFs| {
            let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
            PersistentDatabase::open_with(vfs, &path).expect("open")
        };
        let mut pdb = open_on(&pfs);
        pdb.txn(|t| {
            let salary = Type::temporal(Type::INTEGER);
            t.define_class(ClassDef::new("employee").attr("salary", salary))?;
            t.advance_to(Instant(1))
        })
        .unwrap();
        for i in 0..200 {
            if i % 7 == 0 {
                pdb.tick().unwrap();
            }
            if checkpoint && i == 150 {
                pdb.checkpoint().unwrap();
            }
            pdb.create_object(
                &"employee".into(),
                tchimera_core::attrs([("salary", Value::Int(100 + i))]),
            )
            .unwrap();
        }
        pdb.sync().unwrap();
        assert_eq!(pdb.base_op() > 0, checkpoint);

        let (pt, rt) = SimTransport::pair(7, SimNetConfig::clean());
        let mut primary = Primary::new(pdb, 1, pt);
        let mut replica = Replica::new(open_on(&rfs), rt);
        quiesce(&mut primary, &mut replica);
        replica.sync().unwrap();
        assert!(
            rfs.contents(&path) == pfs.contents(&path),
            "the follower's log differs from the primary's (checkpoint: {checkpoint})"
        );
        // … and stays so as the primary writes on.
        primary.db().tick().unwrap();
        quiesce(&mut primary, &mut replica);
        assert!(rfs.contents(&path) == pfs.contents(&path));

        let digest = primary.db_ref().state_digest();
        drop(replica);
        let reopened = open_on(&rfs);
        assert_eq!(reopened.recovered_ops(), primary.db_ref().op_count());
        assert_eq!(reopened.state_digest(), digest);
        assert_eq!(reopened.base_op(), primary.db_ref().base_op());
    }
}
