//! The fault scenarios that read a process-global metric: the
//! `storage.breaker.state` gauge and the retry, breaker, replication and
//! scrub counters. An own test binary, and a mutex serializes the tests
//! inside it: no other test's traffic moves a metric between two reads.

use std::sync::Mutex;

use tchimera_storage::resilience::BREAKER_THRESHOLD;
use tchimera_storage::sim;
use tchimera_storage::{BreakerState, CircuitBreaker, EngineError, FaultKind};

static METRICS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    METRICS.lock().unwrap_or_else(|e| e.into_inner())
}

fn gauge() -> i64 {
    tchimera_obs::snapshot()
        .gauge("storage.breaker.state")
        .expect("breaker gauge is registered the moment a breaker exists")
}

fn counter(name: &str) -> u64 {
    tchimera_obs::snapshot().counter(name).unwrap_or(0)
}

/// Every state transition is mirrored into the gauge, including the
/// transient half-open probe states an engine only passes through.
#[test]
fn breaker_gauge_mirrors_every_transition() {
    let _g = lock();
    let mut b = CircuitBreaker::new(2);
    assert_eq!((b.state(), gauge()), (BreakerState::Closed, 0));
    b.note_failure();
    assert_eq!((b.state(), gauge()), (BreakerState::Closed, 0), "below threshold");
    b.note_failure();
    assert_eq!((b.state(), gauge()), (BreakerState::Open, 2), "threshold reached");
    assert!(b.begin_probe());
    assert_eq!((b.state(), gauge()), (BreakerState::HalfOpen, 1));
    b.note_failure();
    assert_eq!((b.state(), gauge()), (BreakerState::Open, 2), "failed probe re-opens");
    assert!(b.begin_probe());
    assert_eq!(gauge(), 1);
    b.note_success();
    assert_eq!((b.state(), gauge()), (BreakerState::Closed, 0), "successful probe closes");
    assert_eq!(b.consecutive_failures(), 0);
    assert!(!b.begin_probe(), "no probe needed while closed");
}

/// An engine of the simulated world: the gauge reads open after
/// `BREAKER_THRESHOLD` surfaced faults and after a manual trip, and
/// closed after each probe that succeeds.
#[test]
fn engine_breaker_moves_the_gauge() {
    let _g = lock();
    let mut w = sim::build("breaker/dead_disk", 0);
    let fs = w.fs(0).clone();
    let pdb = w.writer();
    fs.fail_after(Some(0));
    for _ in 0..BREAKER_THRESHOLD {
        assert!(matches!(pdb.tick(), Err(EngineError::Write { .. })));
    }
    assert_eq!((pdb.breaker_state(), gauge()), (BreakerState::Open, 2));
    fs.fail_after(None);
    assert!(pdb.try_reset());
    assert_eq!(gauge(), 0);
    pdb.trip();
    assert_eq!(gauge(), 2);
    assert!(pdb.try_reset(), "healthy disk: probe must succeed");
    assert_eq!(gauge(), 0);
    pdb.tick().unwrap();
}

/// Each scenario moves the counters that account for what it did.
#[test]
fn scenarios_move_their_counters() {
    let _g = lock();
    let breaker = ["storage.breaker.trips", "storage.breaker.rejected", "storage.breaker.resets"];
    for (row, counters) in [
        ("breaker/dead_disk", &breaker[..]),
        ("breaker/enospc", &breaker[..]),
        ("retry/absorbed", &["storage.retry.attempts"][..]),
        ("retry/exhausted", &["storage.retry.exhausted"][..]),
        ("damage/undecodable", &["repl.frames.corrupt"][..]),
        ("scrub/replica_pull", &["repl.scrub.pulls"][..]),
    ] {
        let before: Vec<u64> = counters.iter().map(|c| counter(c)).collect();
        sim::replay(row, 0);
        for (c, before) in counters.iter().zip(before) {
            assert!(counter(c) > before, "{row} did not move {c}");
        }
        assert_eq!(gauge(), 0, "{row} left a breaker open");
    }
}

#[test]
fn a_full_disk_is_a_transient_fault() {
    assert_eq!(
        FaultKind::of_io(&std::io::Error::from_raw_os_error(28)),
        FaultKind::Transient,
        "ENOSPC must classify as transient"
    );
}
