//! Driver-side spans: one record per call into a layer, kept in a
//! pre-allocated vector and only read after the measured work ends.
//!
//! A span is `{id, parent, stmt_id, name, start_ns, end_ns}`. Spans of one
//! statement share `stmt_id`. A layer's *self time* is its span's duration
//! minus the durations of its children; the per-layer `busy_s` metrics are
//! sums of self times, so the layers of one statement add up to the
//! statement's wall time and nothing is counted twice.
//!
//! Some children cannot be spanned from outside the program (the model
//! update inside `PersistentDatabase::set_attr`, the digest inside
//! `Primary::pump`). The traced pass measures those by running the same
//! public function on the same input next to the real call and records
//! the result as a *virtual* child: it is subtracted from its parent's
//! self time like any child, but its own interval lies outside the
//! parent's and is excluded from the traced wall time.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub stmt_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Measured beside the parent, not inside it (see the module docs).
    pub virt: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A timed event a counting wrapper saw inside a program call; the driver
/// adopts it as a child of the span that was open at the time.
pub type Event = (&'static str, Instant, Instant);

/// The span recorder. When disabled every method is a branch and nothing
/// else, so the untraced pass carries no tracing work.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    stmt_id: u32,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stmt_id: 0,
        }
    }

    /// A recorder with room for `capacity` spans (it grows if exceeded,
    /// but a fitting capacity keeps reallocation out of the measured path).
    pub fn on(capacity: usize) -> Tracer {
        Tracer {
            enabled: true,
            spans: Vec::with_capacity(capacity),
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        virt: bool,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            stmt_id: self.stmt_id,
            name,
            start_ns,
            end_ns,
            virt,
        });
        id
    }

    fn innermost(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Open a root span for the next statement (or lifecycle operation).
    pub fn begin_stmt(&mut self, name: &'static str) {
        if self.enabled {
            self.stmt_id += 1;
            debug_assert!(self.open.is_empty(), "statement opened inside another");
            self.enter(name);
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            let now = self.ns(Instant::now());
            let id = self.push(self.innermost(), name, now, now, false);
            self.open.push(id);
        }
    }

    /// Close the innermost open span and return its id ([`NO_PARENT`]
    /// when disabled), for attaching virtual children afterwards.
    pub fn exit(&mut self) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.ns(Instant::now());
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = now;
        id
    }

    /// Record events a counting wrapper collected during the innermost
    /// open span as its children.
    pub fn adopt(&mut self, events: impl IntoIterator<Item = Event>) {
        if self.enabled {
            for (name, start, end) in events {
                let (s, e) = (self.ns(start), self.ns(end));
                self.push(self.innermost(), name, s, e, false);
            }
        }
    }

    /// Run `f` beside the (closed) span `parent` and record its duration
    /// as a virtual child. When disabled `f` does not run at all.
    pub fn virt_under<R>(
        &mut self,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        if !self.enabled || parent == NO_PARENT {
            return None;
        }
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(parent, name, s, e, true);
        Some(out)
    }

    /// Record an already measured duration as a virtual child of `parent`.
    pub fn virt_ns_under(&mut self, parent: u32, name: &'static str, dur_ns: u64) {
        if self.enabled && parent != NO_PARENT {
            let now = self.ns(Instant::now());
            self.push(parent, name, now, now + dur_ns, true);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a span table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus children, floored at 0).
    pub self_ns: u64,
}

/// Self time per span name. Children of one parent run one after another
/// on the single driver thread, so the part of a parent they cover is the
/// sum of their durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(covered[s.id as usize]);
    }
    out
}

/// Wall time of the traced work: the root spans' durations. Virtual spans
/// lie outside their parents and are not part of it.
pub fn root_wall_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(Span::dur_ns)
        .sum()
}

/// The span table as JSON rows (for `--spans <file>`).
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("stmt_id", Json::Num(f64::from(s.stmt_id))),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("virtual", Json::Bool(s.virt)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        virt: bool,
    ) -> Span {
        Span {
            id,
            parent,
            stmt_id: 1,
            name,
            start_ns,
            end_ns,
            virt,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // stmt [0,100]
        //   parser [0,10]
        //   engine [10,90]
        //     core (virtual, measured beside: 30 long)
        //     vfs.write [50,60]
        //     vfs.fsync [60,85]
        let spans = vec![
            span(0, NO_PARENT, "stmt", 0, 100, false),
            span(1, 0, "parser", 0, 10, false),
            span(2, 0, "engine", 10, 90, false),
            span(3, 2, "core", 200, 230, true),
            span(4, 2, "vfs.write", 50, 60, false),
            span(5, 2, "vfs.fsync", 60, 85, false),
        ];
        let t = self_times(&spans);
        assert_eq!(t["stmt"].self_ns, 10); // 100 - 10 - 80
        assert_eq!(t["parser"].self_ns, 10);
        assert_eq!(t["engine"].self_ns, 80 - 30 - 10 - 25);
        assert_eq!(t["core"].self_ns, 30);
        assert_eq!(
            t["vfs.fsync"],
            LayerTime {
                calls: 1,
                total_ns: 25,
                self_ns: 25
            }
        );
        // Every nanosecond of the root is attributed exactly once.
        assert_eq!(t.values().map(|l| l.self_ns).sum::<u64>(), 100);
        assert_eq!(root_wall_ns(&spans), 100);
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        let spans = vec![
            span(0, NO_PARENT, "stmt", 0, 10, false),
            span(1, 0, "noisy", 50, 75, true),
        ];
        assert_eq!(self_times(&spans)["stmt"].self_ns, 0);
    }

    #[test]
    fn recorder_nests_shares_stmt_ids_and_is_inert_when_off() {
        let mut tr = Tracer::on(16);
        tr.begin_stmt("stmt");
        tr.enter("a");
        let t0 = Instant::now();
        tr.adopt([("leaf", t0, t0)]);
        let a = tr.exit();
        assert_eq!(tr.virt_under(a, "v", || 7), Some(7));
        tr.exit();
        tr.begin_stmt("stmt");
        tr.exit();
        let s = tr.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["stmt", "a", "leaf", "v", "stmt"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [NO_PARENT, 0, 1, 1, NO_PARENT]
        );
        assert_eq!(
            s.iter().map(|s| s.stmt_id).collect::<Vec<_>>(),
            [1, 1, 1, 1, 2]
        );
        assert!(s[3].virt && !s[2].virt);
        assert!(s[1].end_ns >= s[1].start_ns);

        let mut off = Tracer::off();
        off.begin_stmt("stmt");
        off.enter("a");
        let a = off.exit();
        assert_eq!(a, NO_PARENT);
        assert_eq!(
            off.virt_under(a, "v", || panic!("must not run when tracing is off")),
            None::<()>
        );
        off.virt_ns_under(a, "v", 5);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
