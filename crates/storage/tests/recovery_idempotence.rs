//! Recovery is idempotent and observable: opening the same damaged
//! store twice lands on the identical state (digest + op count), takes
//! the identical recovery-ladder rung, and surfaces the log damage as
//! both a metric and a warn-level trace event on every open.
//!
//! Own test binary: it owns the global trace ring buffer.

use tchimera_obs::{EventKind, TraceEvent};
use tchimera_storage::sim;

fn instants<'a>(events: &'a [TraceEvent], name: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
    events.iter().filter(move |e| e.kind == EventKind::Instant && e.name == name)
}

#[test]
fn reopening_a_damaged_store_is_idempotent_and_loud() {
    // The scenario's session ends by flipping a bit in the payload of
    // the last (synced) record, so its CRC no longer matches.
    let mut w = sim::build("recovery/damaged_tail", 0);

    tchimera_obs::install_ring_buffer(4096);
    let damaged = || tchimera_obs::snapshot().counter("storage.log.scan.damaged").unwrap_or(0);
    let damaged_before = damaged();

    let mut runs = Vec::new();
    for open in 0..2 {
        let pdb = w.reopen(0);
        let trace = tchimera_obs::take_trace();
        let rungs = instants(&trace, "storage.recovery.rung").map(|e| e.fields.clone());
        let rungs: Vec<String> = rungs.collect();
        assert_eq!(rungs.len(), 1, "open {open}: exactly one ladder rung");
        let damage_events = instants(&trace, "storage.log.scan.damaged").count();
        if open == 0 {
            // The first open walks over the corrupt frame: loud.
            assert!(damage_events >= 1, "open 0: damage must surface as a warn trace event");
            assert!(pdb.recovered_torn_tail(), "open 0: tail was damaged");
        } else {
            // Recovery truncated the damage away — the second open sees
            // the repaired store and must be silent about old damage.
            assert_eq!(damage_events, 0, "open 1: already repaired");
            assert!(!pdb.recovered_torn_tail(), "open 1: tail is clean");
        }
        // The damaged suffix is gone but the durable prefix survived.
        assert!(pdb.db().object_count() >= 1);
        assert!(pdb.db().check_database().is_consistent());
        runs.push((pdb.state_digest(), pdb.recovered_ops(), rungs));
    }
    tchimera_obs::clear_subscriber();
    assert_eq!(
        runs[0], runs[1],
        "two opens of the same damaged store must recover identically \
         (digest, op count, ladder rung)"
    );
    assert!(damaged() > damaged_before, "the scan over the damage must bump the metric");
}
