//! Storage-layer metric vocabulary.
//!
//! Every metric and span name the storage crate emits, registered up
//! front so a [`MetricsSnapshot`](tchimera_obs::MetricsSnapshot) taken
//! after [`crate::PersistentDatabase::open_with`] names the full
//! vocabulary even for counters still at zero. The names in
//! [`STORAGE_METRICS`] are part of the public observability contract
//! documented in `DESIGN.md` §9 — renaming one is an API break.

use std::sync::Once;

/// Every metric name the storage crate can emit, sorted.
///
/// Span names double as histogram names: `storage.log.fsync` is both
/// the span wrapping the fsync call and the latency histogram (in
/// nanoseconds) that span records into.
pub const STORAGE_METRICS: &[&str] = &[
    "storage.breaker.probes",
    "storage.breaker.rejected",
    "storage.breaker.resets",
    "storage.breaker.state",
    "storage.breaker.trips",
    "storage.engine.checkpoint",
    "storage.engine.rollbacks",
    "storage.engine.txn",
    "storage.log.appends",
    "storage.log.bytes",
    "storage.log.compactions",
    "storage.log.fsync",
    "storage.log.rewrites",
    "storage.log.scan",
    "storage.log.scan.damaged",
    "storage.log.scanned_ops",
    "storage.log.torn_tails",
    "storage.recovery.open",
    "storage.recovery.replayed_ops",
    "storage.recovery.rung",
    "storage.retry.attempts",
    "storage.retry.exhausted",
    "storage.simfs.crashes",
    "storage.simfs.faults",
    "storage.snapshot.install",
    "storage.snapshot.load_failures",
    "storage.snapshot.loads",
    "storage.txn.commits",
    "storage.txn.ops",
    "storage.txn.rollbacks",
];

/// Every replication metric name, sorted. Registered alongside
/// [`STORAGE_METRICS`] (the `repl` module lives in this crate) but kept
/// as its own vocabulary: these names are documented in `DESIGN.md` §9.4.
pub const REPL_METRICS: &[&str] = &[
    "repl.catchup.requests",
    "repl.cursor.rescans",
    "repl.digest.checks",
    "repl.digest.mismatches",
    "repl.frames.corrupt",
    "repl.frames.dropped",
    "repl.frames.duplicated",
    "repl.frames.recv",
    "repl.frames.reordered",
    "repl.frames.sent",
    "repl.ops.applied",
    "repl.ops.shipped",
    "repl.promotions",
    "repl.replica.lag",
    "repl.scrub.pulls",
    "repl.snapshot.ships",
    "repl.stale_reads.refused",
    "repl.term",
];

/// Span names: registered as latency histograms rather than counters.
const SPANS: &[&str] = &[
    "storage.engine.checkpoint",
    "storage.engine.txn",
    "storage.log.fsync",
    "storage.log.scan",
    "storage.recovery.open",
    "storage.snapshot.install",
];

/// Gauge names: registered as gauges rather than counters.
/// `storage.breaker.state` encodes the breaker state machine
/// (0 = closed, 1 = half-open, 2 = open); `repl.replica.lag` is the
/// replica's distance behind the primary head and `repl.term` the
/// node's current replication term.
const GAUGES: &[&str] = &["repl.replica.lag", "repl.term", "storage.breaker.state"];

/// Register every storage metric with the global registry at zero.
///
/// Called from [`crate::PersistentDatabase::open_with`]; idempotent and
/// cheap after the first call.
pub fn touch_metrics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let reg = tchimera_obs::registry();
        for name in STORAGE_METRICS.iter().chain(REPL_METRICS) {
            if SPANS.contains(name) {
                reg.histogram(name);
            } else if GAUGES.contains(name) {
                reg.gauge(name);
            } else {
                reg.counter(name);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_registers_every_storage_metric() {
        touch_metrics();
        let snap = tchimera_obs::snapshot();
        for name in STORAGE_METRICS {
            assert!(snap.contains(name), "missing metric {name}");
        }
    }

    #[test]
    fn spans_are_histograms_counters_are_counters() {
        touch_metrics();
        let snap = tchimera_obs::snapshot();
        for name in SPANS {
            assert!(snap.histogram(name).is_some(), "{name} should be a histogram");
        }
        for name in GAUGES {
            assert!(snap.gauge(name).is_some(), "{name} should be a gauge");
        }
        assert!(snap.counter("storage.log.appends").is_some());
    }

    #[test]
    fn vocabulary_is_sorted_and_unique() {
        for vocab in [STORAGE_METRICS, REPL_METRICS] {
            let mut sorted = vocab.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, vocab);
        }
    }

    #[test]
    fn repl_vocabulary_is_registered() {
        touch_metrics();
        let snap = tchimera_obs::snapshot();
        for name in REPL_METRICS {
            assert!(snap.contains(name), "missing metric {name}");
        }
        assert!(snap.gauge("repl.replica.lag").is_some());
        assert!(snap.gauge("repl.term").is_some());
        assert!(snap.counter("repl.ops.shipped").is_some());
    }
}
