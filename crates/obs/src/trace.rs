//! Structured span tracing with pluggable subscribers.
//!
//! A *span* is a named region of execution entered with
//! [`span!`](crate::span) (or [`SpanGuard::enter`]) and exited when its
//! RAII guard drops. Every span unconditionally records its wall-clock
//! latency into a histogram named after it (`<name>` in nanoseconds), so
//! latency profiles are always on. Span *events* — enter/exit records
//! with formatted fields and nesting depth — are only emitted when a
//! [`Subscriber`] is installed, guarded by a single relaxed atomic load,
//! so the disabled path costs nothing beyond the latency bookkeeping.
//!
//! Subscribers are process-global ([`set_subscriber`]) and pluggable:
//! * [`NoopSubscriber`] — the default: tracing disabled;
//! * [`RingBufferSubscriber`] — keeps the last N events for
//!   [`take_trace`]-style inspection (used by `Database::take_trace()`);
//! * [`CollectingSubscriber`] — unbounded, for tests;
//! * [`StderrSubscriber`] — pretty-prints events live, indented by span
//!   depth.
//!
//! Nesting depth comes from a thread-local span stack, so concurrently
//! tracing threads do not interleave their depths.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::metrics::Histogram;

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span was entered.
    Enter,
    /// A span was exited; the event carries its latency.
    Exit,
    /// A point-in-time event with no duration.
    Instant,
}

/// One record emitted to the installed [`Subscriber`].
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span or event name (e.g. `query.eval`, `storage.recovery.rung`).
    pub name: &'static str,
    /// Enter, exit, or instant.
    pub kind: EventKind,
    /// Nesting depth at emission (0 = top level).
    pub depth: usize,
    /// Formatted `key=value` fields, space-separated; empty if none.
    pub fields: String,
    /// For [`EventKind::Exit`]: span latency in nanoseconds.
    pub elapsed_ns: Option<u64>,
}

/// Receives [`TraceEvent`]s from instrumented code.
///
/// Implementations must be cheap and non-blocking — events are emitted
/// from hot paths while tracing is enabled.
pub trait Subscriber: Send + Sync {
    /// Handle one event.
    fn event(&self, event: TraceEvent);
}

/// Discards all events. Installed by default.
#[derive(Debug, Default)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    fn event(&self, _event: TraceEvent) {}
}

/// Keeps the most recent `capacity` events, dropping the oldest.
#[derive(Debug)]
pub struct RingBufferSubscriber {
    capacity: usize,
    buf: Mutex<std::collections::VecDeque<TraceEvent>>,
}

impl RingBufferSubscriber {
    /// A ring buffer holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> RingBufferSubscriber {
        let capacity = capacity.max(1);
        RingBufferSubscriber {
            capacity,
            buf: Mutex::new(std::collections::VecDeque::with_capacity(capacity)),
        }
    }

    /// Drain and return the buffered events, oldest first.
    pub fn take(&self) -> Vec<TraceEvent> {
        self.buf.lock().expect("trace ring poisoned").drain(..).collect()
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("trace ring poisoned").len()
    }

    /// `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Subscriber for RingBufferSubscriber {
    fn event(&self, event: TraceEvent) {
        let mut buf = self.buf.lock().expect("trace ring poisoned");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event);
    }
}

/// Collects every event, unbounded. Intended for tests.
#[derive(Debug, Default)]
pub struct CollectingSubscriber {
    events: Mutex<Vec<TraceEvent>>,
}

impl CollectingSubscriber {
    /// A fresh, empty collector.
    #[must_use]
    pub fn new() -> CollectingSubscriber {
        CollectingSubscriber::default()
    }

    /// A copy of everything collected so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace collector poisoned").clone()
    }

    /// Drain and return everything collected so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace collector poisoned"))
    }
}

impl Subscriber for CollectingSubscriber {
    fn event(&self, event: TraceEvent) {
        self.events.lock().expect("trace collector poisoned").push(event);
    }
}

/// Pretty-prints events to stderr, indented two spaces per span depth.
#[derive(Debug, Default)]
pub struct StderrSubscriber;

impl Subscriber for StderrSubscriber {
    fn event(&self, event: TraceEvent) {
        let indent = "  ".repeat(event.depth);
        match event.kind {
            EventKind::Enter => {
                eprintln!("{indent}-> {} {}", event.name, event.fields);
            }
            EventKind::Exit => {
                let ns = event.elapsed_ns.unwrap_or(0);
                eprintln!("{indent}<- {} ({ns} ns)", event.name);
            }
            EventKind::Instant => {
                eprintln!("{indent} * {} {}", event.name, event.fields);
            }
        }
    }
}

/// `true` while a non-noop subscriber is installed. Relaxed loads of this
/// flag gate all event construction, so disabled tracing costs one atomic
/// read per site.
static TRACING: AtomicBool = AtomicBool::new(false);

fn subscriber_slot() -> &'static RwLock<Arc<dyn Subscriber>> {
    static SLOT: std::sync::OnceLock<RwLock<Arc<dyn Subscriber>>> = std::sync::OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(Arc::new(NoopSubscriber)))
}

thread_local! {
    static SPAN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The ring buffer most recently installed via [`install_ring_buffer`],
/// if it is still the active subscriber — the source [`take_trace`]
/// drains.
fn ring_slot() -> &'static Mutex<Option<Arc<RingBufferSubscriber>>> {
    static SLOT: std::sync::OnceLock<Mutex<Option<Arc<RingBufferSubscriber>>>> =
        std::sync::OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Install `sub` as the process-global subscriber and enable event
/// emission. Returns the previously installed subscriber.
pub fn set_subscriber(sub: Arc<dyn Subscriber>) -> Arc<dyn Subscriber> {
    *ring_slot().lock().expect("ring slot poisoned") = None;
    let prev = std::mem::replace(
        &mut *subscriber_slot().write().expect("subscriber slot poisoned"),
        sub,
    );
    TRACING.store(true, Ordering::Release);
    prev
}

/// Restore the [`NoopSubscriber`] and disable event emission. Returns the
/// previously installed subscriber.
pub fn clear_subscriber() -> Arc<dyn Subscriber> {
    *ring_slot().lock().expect("ring slot poisoned") = None;
    let prev = std::mem::replace(
        &mut *subscriber_slot().write().expect("subscriber slot poisoned"),
        Arc::new(NoopSubscriber),
    );
    TRACING.store(false, Ordering::Release);
    prev
}

/// `true` while event emission is enabled (a subscriber is installed).
///
/// Instrumented code uses this to skip formatting span fields when
/// nothing is listening.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Install a fresh [`RingBufferSubscriber`] of `capacity` events as the
/// global subscriber and return a handle to it (for draining via
/// [`RingBufferSubscriber::take`]).
pub fn install_ring_buffer(capacity: usize) -> Arc<RingBufferSubscriber> {
    let ring = Arc::new(RingBufferSubscriber::new(capacity));
    set_subscriber(ring.clone());
    *ring_slot().lock().expect("ring slot poisoned") = Some(ring.clone());
    ring
}

/// Drain the events buffered by the ring installed with
/// [`install_ring_buffer`]. Empty when no ring buffer is the active
/// subscriber (the backing store of `Database::take_trace()`).
pub fn take_trace() -> Vec<TraceEvent> {
    let ring = ring_slot().lock().expect("ring slot poisoned").clone();
    ring.map(|r| r.take()).unwrap_or_default()
}

/// Emit one event to the installed subscriber (noop when tracing is
/// disabled — callers should check [`tracing_enabled`] first to avoid
/// formatting fields needlessly).
pub fn emit(event: TraceEvent) {
    if !tracing_enabled() {
        return;
    }
    let sub = subscriber_slot()
        .read()
        .expect("subscriber slot poisoned")
        .clone();
    sub.event(event);
}

/// Emit an [`EventKind::Instant`] event at the current span depth.
///
/// Used for point-in-time occurrences like `storage.recovery.rung`.
pub fn instant(name: &'static str, fields: String) {
    if !tracing_enabled() {
        return;
    }
    let depth = SPAN_DEPTH.with(Cell::get);
    emit(TraceEvent {
        name,
        kind: EventKind::Instant,
        depth,
        fields,
        elapsed_ns: None,
    });
}

/// RAII guard for a traced span.
///
/// Created by [`SpanGuard::enter`] (usually via the
/// [`span!`](crate::span) macro). On drop it records the span's latency
/// into its histogram and, when tracing is enabled, emits an
/// [`EventKind::Exit`] event.
pub struct SpanGuard {
    name: &'static str,
    hist: &'static Histogram,
    start: Instant,
    depth: usize,
}

impl SpanGuard {
    /// Enter a span: bump the thread-local depth, emit an enter event if
    /// tracing, and start the latency clock. `fields` is only evaluated
    /// when a subscriber is live.
    pub fn enter(
        name: &'static str,
        hist: &'static Histogram,
        fields: impl FnOnce() -> String,
    ) -> SpanGuard {
        let depth = SPAN_DEPTH.with(|d| {
            let cur = d.get();
            d.set(cur + 1);
            cur
        });
        if tracing_enabled() {
            emit(TraceEvent {
                name,
                kind: EventKind::Enter,
                depth,
                fields: fields(),
                elapsed_ns: None,
            });
        }
        SpanGuard {
            name,
            hist,
            start: Instant::now(),
            depth,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        self.hist.record(elapsed);
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if tracing_enabled() {
            emit(TraceEvent {
                name: self.name,
                kind: EventKind::Exit,
                depth: self.depth,
                fields: String::new(),
                elapsed_ns: Some(elapsed),
            });
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::registry;

    // The subscriber slot is process-global; serialize every test of the
    // crate that touches it (the macro tests in lib.rs take this lock too).
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn span_records_latency_even_without_subscriber() {
        let _g = lock();
        clear_subscriber();
        let hist = registry().histogram("test.trace.silent");
        let before = hist.count();
        {
            let _span = SpanGuard::enter("test.trace.silent", hist, String::new);
        }
        assert_eq!(hist.count(), before + 1);
    }

    #[test]
    fn collecting_subscriber_sees_nested_spans() {
        let _g = lock();
        let collector = Arc::new(CollectingSubscriber::new());
        set_subscriber(collector.clone());
        let outer_h = registry().histogram("test.trace.outer");
        let inner_h = registry().histogram("test.trace.inner");
        {
            let _outer = SpanGuard::enter("test.trace.outer", outer_h, || "k=1".to_owned());
            let _inner = SpanGuard::enter("test.trace.inner", inner_h, String::new);
            instant("test.trace.mark", "rung=replay".to_owned());
        }
        clear_subscriber();
        let events = collector.take();
        let kinds: Vec<(&str, EventKind, usize)> =
            events.iter().map(|e| (e.name, e.kind, e.depth)).collect();
        assert_eq!(
            kinds,
            vec![
                ("test.trace.outer", EventKind::Enter, 0),
                ("test.trace.inner", EventKind::Enter, 1),
                ("test.trace.mark", EventKind::Instant, 2),
                ("test.trace.inner", EventKind::Exit, 1),
                ("test.trace.outer", EventKind::Exit, 0),
            ]
        );
        assert_eq!(events[0].fields, "k=1");
        assert_eq!(events[2].fields, "rung=replay");
        assert!(events[4].elapsed_ns.is_some());
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let _g = lock();
        let ring = install_ring_buffer(3);
        for i in 0..5 {
            instant("test.trace.ring", format!("i={i}"));
        }
        clear_subscriber();
        let events = ring.take();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].fields, "i=2");
        assert_eq!(events[2].fields, "i=4");
        assert!(ring.is_empty());
    }

    #[test]
    fn fields_not_formatted_when_disabled() {
        let _g = lock();
        clear_subscriber();
        let hist = registry().histogram("test.trace.lazy");
        let _span = SpanGuard::enter("test.trace.lazy", hist, || {
            panic!("fields must not be evaluated while tracing is disabled")
        });
    }
}
