//! Observability surface of the core crate.
//!
//! Instrumentation throughout the model (consistency sweeps, the extent
//! index, the reverse-reference index) records into the process-global
//! [`tchimera_obs`] registry; this module names the full core vocabulary
//! and exposes it through [`Database::metrics`] / [`Database::take_trace`].
//! The metric names are API — see `DESIGN.md` §9 for the contract table.

use tchimera_obs::{MetricsSnapshot, TraceEvent};

use crate::database::Database;

/// Every metric name the core crate records, in registry order.
///
/// `DESIGN.md` §9 documents each entry; a round-trip test asserts this
/// list and the documentation stay in sync with the snapshot.
pub const CORE_METRICS: &[&str] = &[
    "core.attridx.builds",
    "core.attridx.evictions",
    "core.attridx.incremental",
    "core.attridx.invalidations",
    "core.attridx.probes",
    "core.attridx.reconciles",
    "core.check_database",
    "core.check_oid_uniqueness",
    "core.check_refs",
    "core.consistency.errors",
    "core.consistency.objects_checked",
    "core.digest.builds",
    "core.digest.rehashed",
    "core.digest.walks",
    "core.extent.at_current",
    "core.extent.at_replay",
    "core.extent.checkpoints",
    "core.extent.during_queries",
    "core.extent.replayed_events",
    "core.refindex.incremental",
    "core.refindex.probes",
    "core.refindex.rebuilds",
    "core.scrub.clean_cycles",
    "core.scrub.cycle",
    "core.scrub.cycles",
    "core.scrub.divergences",
    "core.scrub.items",
    "core.scrub.quarantined",
    "core.scrub.repairs.index_rebuild",
    "core.scrub.repairs.rematerialize",
    "core.scrub.repairs.replica_pull",
    "core.scrub.steps",
    "core.state.exports",
];

/// Register every core metric (at zero) so snapshots always carry the
/// full documented vocabulary, even for paths a workload never hit.
pub fn touch_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let r = tchimera_obs::registry();
        // Spans record latency histograms under their own name.
        r.histogram("core.check_database");
        r.histogram("core.check_oid_uniqueness");
        r.histogram("core.check_refs");
        r.histogram("core.scrub.cycle");
        r.gauge("core.scrub.quarantined");
        for name in CORE_METRICS {
            match *name {
                "core.check_database" | "core.check_oid_uniqueness" | "core.check_refs"
                | "core.scrub.cycle" | "core.scrub.quarantined" => {}
                counter => {
                    r.counter(counter);
                }
            }
        }
    });
}

impl Database {
    /// A point-in-time snapshot of every metric the process has recorded
    /// — core model counters plus whatever the storage and query layers
    /// have registered (the registry is process-global). Serialize with
    /// [`MetricsSnapshot::to_json`].
    ///
    /// All core metric names are present even at zero; see `DESIGN.md`
    /// §9 for their meanings.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        touch_metrics();
        tchimera_obs::snapshot()
    }

    /// Drain the span/event trace buffered since the last call.
    ///
    /// Returns events only when a ring-buffer subscriber is live (see
    /// [`tchimera_obs::install_ring_buffer`]); with the default noop
    /// subscriber the trace is empty and tracing costs nothing.
    #[must_use]
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        tchimera_obs::take_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_snapshot_names_every_core_metric() {
        let db = Database::new();
        let snap = db.metrics();
        for name in CORE_METRICS {
            assert!(snap.contains(name), "metric {name} missing from snapshot");
        }
    }

    #[test]
    fn take_trace_empty_without_ring_buffer() {
        // Under the default noop subscriber the trace drains empty.
        let db = Database::new();
        let _ = db.take_trace();
        assert!(db.take_trace().is_empty());
    }
}
