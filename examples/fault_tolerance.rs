//! Fault-tolerance tour: atomic transactions, fault classification with
//! bounded retry, and the read-only degradation circuit breaker.
//!
//! Run with `cargo run --example fault_tolerance`.
//!
//! The contract (DESIGN.md §10): the engine degrades, it doesn't
//! corrupt. Mutations grouped in `txn` commit as one log record or not
//! at all; transient I/O blips are retried deterministically; repeated
//! surfaced failures flip the engine read-only until a probe finds the
//! disk healthy again.

use std::path::Path;
use std::sync::Arc;

use tchimera::storage::resilience::BREAKER_THRESHOLD;
use tchimera::storage::{BreakerState, EngineError, PersistentDatabase, SimFs, TearMode, Vfs};
use tchimera::{attrs, ClassDef, Type, Value};

fn main() {
    // A simulated disk so the faults below are scripted, not hoped for.
    let fs = SimFs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let path = Path::new("tour.log");
    let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), path).unwrap();

    // ── 1. Atomic transactions ──────────────────────────────────────
    // Two people who are each other's friend: neither half may ever be
    // observable alone, so both creates and the back-reference commit
    // as ONE log record.
    let (ann, bob) = pdb
        .txn(|t| {
            t.define_class(
                ClassDef::new("person")
                    .attr("name", Type::STRING)
                    .attr("friend", Type::temporal(Type::object("person"))),
            )?;
            t.tick()?;
            let ann = t.create_object(
                &"person".into(),
                attrs([("name", Value::str("Ann")), ("friend", Value::Null)]),
            )?;
            let bob = t.create_object(
                &"person".into(),
                attrs([("name", Value::str("Bob")), ("friend", Value::Oid(ann))]),
            )?;
            t.set_attr(ann, &"friend".into(), Value::Oid(bob))?;
            Ok((ann, bob))
        })
        .unwrap();
    println!("committed the mutual pair as {} log record(s)", pdb.op_count());
    assert_eq!(
        pdb.db().attr_now(ann, &"friend".into()).unwrap(),
        Value::Oid(bob)
    );

    // A transaction that fails mid-way leaves no trace at all.
    let before = pdb.state_digest();
    let rejected = pdb.txn(|t| {
        t.tick()?;
        t.create_object(&"person".into(), attrs([("name", Value::Int(7))]))?; // type error
        Ok(())
    });
    assert!(rejected.is_err());
    assert_eq!(pdb.state_digest(), before, "rollback is total");
    println!("mid-transaction type error rolled back cleanly");

    // ── 2. Transient faults are absorbed by deterministic retry ─────
    fs.fail_transient_next(2); // the next two writes return Interrupted
    pdb.txn(|t| {
        t.tick()?;
        t.set_attr(ann, &"friend".into(), Value::Null)
    })
    .unwrap();
    let snap = tchimera::obs::snapshot();
    println!(
        "transient blip absorbed: {} retries, {} exhausted",
        snap.counter("storage.retry.attempts").unwrap_or(0),
        snap.counter("storage.retry.exhausted").unwrap_or(0),
    );

    // ── 3. Permanent faults trip the breaker: degrade, don't corrupt ─
    pdb.sync().unwrap();
    let boundary = pdb.state_digest();
    fs.fail_after(Some(0)); // the disk dies
    for _ in 0..BREAKER_THRESHOLD {
        assert!(matches!(pdb.tick(), Err(EngineError::Write { .. })));
    }
    assert_eq!(pdb.breaker_state(), BreakerState::Open);
    assert!(matches!(pdb.tick(), Err(EngineError::ReadOnly { .. })));
    assert_eq!(pdb.state_digest(), boundary, "reads still serve the boundary");
    println!(
        "breaker open after {BREAKER_THRESHOLD} surfaced faults (gauge storage.breaker.state = {})",
        tchimera::obs::snapshot()
            .gauge("storage.breaker.state")
            .unwrap()
    );

    // ── 4. The disk heals; a probe restores service ─────────────────
    fs.fail_after(None);
    assert!(pdb.try_reset());
    pdb.tick().unwrap();
    pdb.sync().unwrap();
    println!("probe succeeded, writes restored");

    // ── 5. And a crash still recovers to the committed boundary ─────
    fs.crash(TearMode::KeepHalf);
    let recovered = PersistentDatabase::open_with(vfs, path).unwrap();
    assert!(recovered.db().check_database().is_consistent());
    println!(
        "after crash: {} ops recovered, consistency clean",
        recovered.recovered_ops()
    );
}
