//! Observability substrate for T_Chimera.
//!
//! This crate is the workspace's measurement layer: dependency-free
//! (std only, like the vendored `rayon`/`proptest` shims) and cheap
//! enough to stay compiled in on release hot paths.
//!
//! # Metrics
//!
//! [`Counter`]s, [`Gauge`]s and log2-bucketed [`Histogram`]s live in a
//! process-global [`MetricsRegistry`]; every handle is `&'static` and
//! recording is a couple of relaxed atomic ops. Call-site macros cache
//! the handle lookup in a `OnceLock`, so the registry lock is taken once
//! per site:
//!
//! ```
//! tchimera_obs::counter!("example.requests").inc();
//! tchimera_obs::histogram_metric!("example.bytes").record(512);
//! let snap = tchimera_obs::snapshot();
//! assert_eq!(snap.counter("example.requests"), Some(1));
//! println!("{}", snap.to_json());
//! ```
//!
//! **Metric names are API** — the full vocabulary is tabulated in
//! `DESIGN.md` §9 and covered by a round-trip test.
//!
//! # Spans
//!
//! [`span!`] opens an RAII-guarded region that always records its
//! latency (nanoseconds) into the histogram of the same name, and — only
//! while a [`Subscriber`] is installed — emits enter/exit
//! [`TraceEvent`]s with formatted fields and thread-local nesting depth:
//!
//! ```
//! # fn ext_at(class: &str, t: u64) -> usize {
//! let _span = tchimera_obs::span!("example.ext_at", class = class, t = t);
//! // ... the measured work ...
//! # 0 }
//! # ext_at("person", 3);
//! ```
//!
//! The default subscriber is [`NoopSubscriber`] (events gated off by one
//! relaxed atomic load; field strings are never formatted). Install a
//! [`RingBufferSubscriber`] via [`install_ring_buffer`] to capture the
//! last N events, a [`CollectingSubscriber`] in tests, or a
//! [`StderrSubscriber`] for live pretty-printed traces.

#![deny(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_index, bucket_lo, registry, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{
    clear_subscriber, emit, install_ring_buffer, instant, set_subscriber, take_trace,
    tracing_enabled, CollectingSubscriber, EventKind, NoopSubscriber, RingBufferSubscriber,
    SpanGuard, StderrSubscriber, Subscriber, TraceEvent,
};

/// Snapshot the process-global [`MetricsRegistry`].
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// The global [`Counter`] named by a string literal, cached per call
/// site.
///
/// ```
/// tchimera_obs::counter!("doc.counter").add(2);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// The global [`Gauge`] named by a string literal, cached per call site.
///
/// ```
/// tchimera_obs::gauge!("doc.gauge").set(3);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// The global [`Histogram`] named by a string literal, cached per call
/// site.
///
/// (Named `histogram_metric!` rather than `histogram!` to keep the
/// reading unambiguous next to [`span!`], which also records into a
/// histogram.)
///
/// ```
/// tchimera_obs::histogram_metric!("doc.hist").record(7);
/// ```
#[macro_export]
macro_rules! histogram_metric {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Open an RAII-guarded span.
///
/// Bind the result to a named local (`let _span = ...`) — binding to `_`
/// drops the guard immediately and measures nothing. Latency is always
/// recorded into the histogram `$name`; `key = value` fields are only
/// formatted (with `{:?}` for values) when a subscriber is live.
///
/// ```
/// let t = 5u64;
/// let _span = tchimera_obs::span!("doc.span", t = t, class = "person");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::SpanGuard::enter(
            $name,
            $crate::histogram_metric!($name),
            ::std::string::String::new,
        )
    };
    ($name:literal, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::enter($name, $crate::histogram_metric!($name), || {
            let mut fields = ::std::string::String::new();
            $(
                if !fields.is_empty() {
                    fields.push(' ');
                }
                fields.push_str(concat!(stringify!($key), "="));
                fields.push_str(&::std::format!("{:?}", $value));
            )+
            fields
        })
    };
}

/// Emit an instant (zero-duration) [`TraceEvent`] at the current span
/// depth, with `key = value` fields. A no-op unless a subscriber is
/// installed; fields are formatted lazily.
///
/// ```
/// tchimera_obs::event!("doc.event", rung = "full-replay");
/// ```
#[macro_export]
macro_rules! event {
    ($name:literal) => {
        if $crate::tracing_enabled() {
            $crate::instant($name, ::std::string::String::new());
        }
    };
    ($name:literal, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::tracing_enabled() {
            let mut fields = ::std::string::String::new();
            $(
                if !fields.is_empty() {
                    fields.push(' ');
                }
                fields.push_str(concat!(stringify!($key), "="));
                fields.push_str(&::std::format!("{:?}", $value));
            )+
            $crate::instant($name, fields);
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::trace::tests::lock;

    #[test]
    fn macros_cache_and_record() {
        let _g = lock();
        let before = crate::counter!("test.lib.hits").get();
        crate::counter!("test.lib.hits").inc();
        crate::counter!("test.lib.hits").add(2);
        assert_eq!(crate::counter!("test.lib.hits").get(), before + 3);
        crate::gauge!("test.lib.level").set(-4);
        assert_eq!(crate::gauge!("test.lib.level").get(), -4);
        crate::histogram_metric!("test.lib.sizes").record(100);
        let snap = crate::snapshot();
        assert_eq!(snap.counter("test.lib.hits"), Some(before + 3));
        assert_eq!(snap.gauge("test.lib.level"), Some(-4));
        assert!(snap.histogram("test.lib.sizes").unwrap().count >= 1);
    }

    #[test]
    fn span_macro_formats_fields_for_live_subscriber() {
        let _g = lock();
        let collector = Arc::new(crate::CollectingSubscriber::new());
        crate::set_subscriber(collector.clone());
        {
            let _span = crate::span!("test.lib.span", t = 5u64, class = "person");
            crate::event!("test.lib.rung", rung = "full-replay");
        }
        crate::clear_subscriber();
        let events = collector.take();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].fields, "t=5 class=\"person\"");
        assert_eq!(events[1].name, "test.lib.rung");
        assert_eq!(events[1].fields, "rung=\"full-replay\"");
        assert_eq!(events[2].kind, crate::EventKind::Exit);
        // Latency was recorded regardless of the subscriber.
        assert!(crate::snapshot().histogram("test.lib.span").unwrap().count >= 1);
    }
}
