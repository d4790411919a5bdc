//! Temporal attribute-value index: `value → {oid → validity intervals}`.
//!
//! The planner (PR 6) pushes selective conjuncts like `e.dept = "R&D"`
//! down as per-variable prefilters, but a prefilter still walks the full
//! attribute history of every object in the class extent — `O(objects ×
//! history)` per query. This module gives equality and membership
//! prefilters the same leap the extent index gave `π(c, t)`: a secondary
//! index keyed by attribute *value*, mapping each value to the set of
//! objects that ever held it and the intervals over which they did, so a
//! probe answers in `O(holders + log)` instead.
//!
//! # Shape
//!
//! One [`AttrIndex`] per attribute *name* (not per class: names are
//! shared across a hierarchy and the executor checks each probed oid
//! against the class's membership history anyway). Each entry is a
//! [`Holding`]:
//!
//! * closed runs land in a coalesced [`IntervalSet`];
//! * the current open run is a single `open_since` instant — it reads as
//!   `[open_since, now]` at probe time, so the clock advancing never
//!   touches the index;
//! * a *static* slot is an `always` holding: the model keeps no history
//!   for statics ([`Database::attr_at`] answers the current value for any
//!   `t`), so the only sound interval is "everywhere".
//!
//! # Contract: a probe is exact
//!
//! For an attribute the class declares temporal, a probe returns — sorted
//! and deduped — *precisely* the oids whose slot reads one of the values
//! at the instant of a point window ([`Database::attr_at`] `∈ values`),
//! and for a wider window precisely those whose slot read one at some
//! instant of it. A temporal attribute is a function from instants to
//! values and a holding is that function's runs of one value, so
//! [`Holding::hits`] is `value_at` asked of the index instead of the
//! object. The query executor relies on this: a conjunct a covered probe
//! answered is not evaluated again on the candidates (`DESIGN.md` §13.3),
//! so an off-by-one in a write hook below is a wrong row, not a wasted
//! recheck. What a probe does **not** answer is class membership — the
//! index is keyed by name — which the caller asks of each oid's own
//! membership history. Static declarations stay uncovered (`None`): a
//! static slot has no history to be exact about, and one dropped by a
//! migration makes the scan *error* where an index would just be shorter.
//! The scrubber's rebuild-and-compare ([`Database::attridx_scrub`]) is
//! the safety net for a cached index that diverged.
//!
//! # Maintenance
//!
//! Indexes build lazily on first probe and live in an LRU-capped cache
//! ([`ATTR_INDEX_CAP`] entries) stamped with the schema generation; any
//! DDL bumps the generation and the next probe drops the stale cache
//! wholesale. While an index is live, the mutation paths keep it current
//! incrementally — `O(changed runs)`, never `O(history)`, mirroring the
//! reverse-reference index:
//!
//! * `create_object` indexes the initial slot values;
//! * `set_attr` closes the displaced open run at `now − 1` and opens the
//!   new one at `now` (a same-instant replace just retargets the open
//!   run; a same-value write coalesces and is a no-op);
//! * `terminate_object` closes every open run at `now`;
//! * `migrate` (which can drop, convert, or re-initialize slots) and the
//!   test-only `replace_object_for_test` reconcile the object's entries
//!   from its post-mutation state, `O(object state)`.
//!
//! When the cache is empty the hooks cost one relaxed atomic load — an
//! un-probed database pays nothing on the write path.
//!
//! Counters: `core.attridx.builds` / `.evictions` / `.invalidations` /
//! `.incremental` / `.reconciles` / `.probes` (DESIGN.md §9.1).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use tchimera_temporal::{Instant, Interval, IntervalSet};

use crate::ident::{AttrName, ClassId, Oid};
use crate::value::Value;
use crate::Database;

/// Maximum number of per-attribute indexes kept live at once.
pub(crate) const ATTR_INDEX_CAP: usize = 16;

/// The intervals over which one object held one value.
#[derive(Clone, Debug, Default, PartialEq)]
struct Holding {
    /// Closed runs, coalesced.
    closed: IntervalSet,
    /// Start of the current open run, if the object holds the value now.
    open_since: Option<Instant>,
    /// The value sits in a *static* slot: no history is recorded, so the
    /// holding covers every instant ([`Database::attr_at`] semantics).
    always: bool,
}

impl Holding {
    fn is_empty(&self) -> bool {
        !self.always && self.open_since.is_none() && self.closed.is_empty()
    }

    /// Does any holding interval overlap `window`, i.e. did the object
    /// hold the value at some instant of it? Exact, not an approximation:
    /// the executor does not re-read the object (module docs).
    fn hits(&self, window: Interval, now: Instant) -> bool {
        if self.always {
            return true;
        }
        if let Some(s) = self.open_since {
            if Interval::new(s, now.max(s)).overlaps(window) {
                return true;
            }
        }
        match window.lo() {
            None => false,
            Some(lo) => self
                .closed
                .first_at_or_after(lo)
                .is_some_and(|t| window.contains(t)),
        }
    }
}

/// One attribute's value index: `value → {oid → holding}`. The holders
/// of one value are kept in oid order, so a probe of one value is a
/// filtered in-order walk — no sort, no dedup.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct AttrIndex {
    values: HashMap<Value, BTreeMap<Oid, Holding>>,
}

impl AttrIndex {
    /// The holding slot for `(oid, value)`, created on demand. The value
    /// key is only cloned when a genuinely new value enters the index —
    /// the steady-state write path allocates nothing here.
    fn holding_mut(&mut self, oid: Oid, value: &Value) -> &mut Holding {
        if !self.values.contains_key(value) {
            self.values.insert(value.clone(), BTreeMap::new());
        }
        self.values
            .get_mut(value)
            .expect("just ensured")
            .entry(oid)
            .or_default()
    }

    /// Drop the `(oid, value)` entry if its holding went empty.
    fn prune(&mut self, oid: Oid, value: &Value) {
        let Some(holders) = self.values.get_mut(value) else {
            return;
        };
        if !holders.get(&oid).is_some_and(Holding::is_empty) {
            return;
        }
        holders.remove(&oid);
        if holders.is_empty() {
            self.values.remove(value);
        }
    }

    /// Index a raw attribute slot (used by lazy builds, `create_object`
    /// and reconciliation). Nulls are never indexed: `null` is not a
    /// probeable literal and the planner excludes it at plan time.
    fn index_slot(&mut self, oid: Oid, slot: &Value, now: Instant) {
        match slot {
            Value::Null => {}
            Value::Temporal(h) => {
                for e in h.entries() {
                    if e.value.is_null() {
                        continue;
                    }
                    let holding = self.holding_mut(oid, &e.value);
                    if e.end.is_now() {
                        holding.open_since = Some(e.start);
                    } else {
                        holding.closed.insert(e.interval(now));
                    }
                }
            }
            v => self.holding_mut(oid, v).always = true,
        }
    }

    /// Mirror a successful temporal `set_attr`: `old_open` is the open
    /// run the write displaced (if any), `new` the value now holding.
    fn record_set_temporal(
        &mut self,
        oid: Oid,
        old_open: Option<(Value, Instant)>,
        new: &Value,
        now: Instant,
    ) {
        if let Some((old, start)) = old_open {
            if old == *new {
                // `set_from` coalesced: the same open run continues.
                return;
            }
            // The displaced run's entry exists whenever the index is
            // consistent; one clone-free probe chain closes and prunes it.
            if let Some(holders) = self.values.get_mut(&old) {
                if let Some(h) = holders.get_mut(&oid) {
                    h.open_since = None;
                    // A same-instant replace (start == now) pops the run
                    // without a trace; otherwise it closes at now − 1.
                    if let Some(end) = now.prev().filter(|e| *e >= start) {
                        h.closed.insert(Interval::new(start, end));
                    }
                    if h.is_empty() {
                        holders.remove(&oid);
                        if holders.is_empty() {
                            self.values.remove(&old);
                        }
                    }
                }
            }
        }
        if !new.is_null() {
            self.holding_mut(oid, new).open_since = Some(now);
        }
    }

    /// Mirror a static `set_attr`: the old value's trace disappears (the
    /// model records no history for statics).
    fn record_set_static(&mut self, oid: Oid, old: &Value, new: &Value) {
        if old == new {
            return;
        }
        if !old.is_null() {
            self.holding_mut(oid, old).always = false;
            self.prune(oid, old);
        }
        if !new.is_null() {
            self.holding_mut(oid, new).always = true;
        }
    }

    /// Mirror `terminate_object` closing an open run at `now`
    /// (inclusive — the lifespan ends *at* `now`). Statics keep their
    /// `always` holdings: `attr_at` still answers them after death.
    fn record_terminate(&mut self, oid: Oid, value: &Value, start: Instant, now: Instant) {
        if value.is_null() {
            return;
        }
        let h = self.holding_mut(oid, value);
        h.open_since = None;
        h.closed.insert(Interval::new(start, now.max(start)));
    }

    /// Remove every entry for `oid` — a sweep over the distinct values in
    /// the index. Only reconciliation (migrate) pays this; keeping a
    /// reverse occupancy map to avoid it would tax every `set_attr` with
    /// value clones and linear scans instead.
    fn remove_object(&mut self, oid: Oid) {
        self.values.retain(|_, holders| {
            holders.remove(&oid);
            !holders.is_empty()
        });
    }

    /// Exactly the objects holding any of `values` at some instant of
    /// `window` (sorted, deduped).
    fn probe(&self, values: &[Value], window: Interval, now: Instant) -> Vec<Oid> {
        let mut out = Vec::new();
        for v in values {
            if let Some(holders) = self.values.get(v) {
                out.extend(
                    holders
                        .iter()
                        .filter(|(_, h)| h.hits(window, now))
                        .map(|(oid, _)| *oid),
                );
            }
        }
        // One value's holders arrive sorted and distinct; only a
        // membership probe has runs to merge.
        if values.len() > 1 {
            out.sort_unstable();
            out.dedup();
        }
        out
    }
}

/// The lazily-populated, LRU-capped, generation-stamped cache of live
/// [`AttrIndex`]es hanging off a [`Database`].
///
/// Cloning a database yields an *empty* cache (indexes rebuild lazily on
/// the clone's first probe): sharing would couple clones' write paths.
#[derive(Debug, Default)]
pub(crate) struct AttrIndexCache {
    /// Number of cached indexes, maintained alongside the map so the
    /// write-path hooks can skip the lock when the cache is empty.
    len: AtomicUsize,
    /// 64-bit bloom digest of the cached attribute names, so per-attr
    /// hooks (`set_attr`) skip the lock without a map probe. False
    /// positives only cost a lock that finds no entry; membership
    /// changes (build/evict/clear) republish the digest.
    bloom: AtomicU64,
    inner: Mutex<CacheInner>,
}

/// The bloom bit for an attribute name.
fn bloom_bit(attr: &AttrName) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    attr.hash(&mut h);
    1u64 << (h.finish() % 64)
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Schema generation the cached indexes were built against.
    generation: u64,
    /// Monotonic LRU clock.
    tick: u64,
    entries: HashMap<AttrName, CacheEntry>,
}

#[derive(Debug)]
struct CacheEntry {
    last_used: u64,
    index: AttrIndex,
}

impl Clone for AttrIndexCache {
    fn clone(&self) -> AttrIndexCache {
        AttrIndexCache::default()
    }
}

impl AttrIndexCache {
    /// Lock-free fast path for the write hooks: anything cached at all?
    fn is_active(&self) -> bool {
        self.len.load(Ordering::Acquire) > 0
    }

    /// Lock-free per-attribute fast path: might `attr` be cached?
    fn maybe_covers(&self, attr: &AttrName) -> bool {
        self.is_active() && self.bloom.load(Ordering::Acquire) & bloom_bit(attr) != 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(g) => g,
            // A panic while holding the lock means a half-updated index:
            // drop everything, rebuild lazily.
            Err(poison) => {
                let mut g = poison.into_inner();
                g.entries.clear();
                self.len.store(0, Ordering::Release);
                self.bloom.store(0, Ordering::Release);
                g
            }
        }
    }

    fn publish_len(&self, inner: &CacheInner) {
        let digest = inner.entries.keys().map(bloom_bit).fold(0, |a, b| a | b);
        self.bloom.store(digest, Ordering::Release);
        self.len.store(inner.entries.len(), Ordering::Release);
    }
}

impl Database {
    /// Probe the temporal attribute-value index: sorted and deduped,
    /// exactly the objects whose `attr` slot read one of `values` at some
    /// instant of `window` — for a point window, exactly those with
    /// `attr_at(oid, attr, t) ∈ values` (the module docs state the
    /// contract). The result is *not* restricted to `class`'s members:
    /// the index is keyed by attribute name, and the caller checks each
    /// oid against the class's membership history.
    ///
    /// Returns `None` — *index does not cover the probe* — when `window`
    /// or `values` is empty, any probe value is `null`, the class or
    /// attribute is unknown, or the declaration is not temporal (a static
    /// slot has no history to be exact about). The caller then falls back
    /// to the scan path.
    ///
    /// The index for `attr` is built on first probe (`O(total runs)`) and
    /// cached; the cache holds at most `ATTR_INDEX_CAP` =
    /// 16 attribute indexes (LRU eviction) and is dropped wholesale when
    /// the schema generation moves (any DDL). While cached, every
    /// mutation keeps it current incrementally — see the module docs.
    pub fn attr_index_probe(
        &self,
        class: &ClassId,
        attr: &AttrName,
        values: &[Value],
        window: Interval,
    ) -> Option<Vec<Oid>> {
        if window.is_empty() || values.is_empty() || values.iter().any(Value::is_null) {
            return None;
        }
        let decl = self.schema.class(class).ok()?.attr(attr)?;
        if !decl.ty.is_temporal() {
            return None;
        }
        let now = self.clock;
        let generation = self.schema.generation();
        let mut inner = self.attr_idx.lock();
        // The write hooks read the key set through `len` / `bloom`: it is
        // republished when this probe changes it, never on a plain hit.
        let mut keys_changed = false;
        if inner.generation != generation {
            if !inner.entries.is_empty() {
                tchimera_obs::counter!("core.attridx.invalidations").inc();
                inner.entries.clear();
                keys_changed = true;
            }
            inner.generation = generation;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(attr) {
            keys_changed = true;
            if inner.entries.len() >= ATTR_INDEX_CAP {
                if let Some(victim) = inner
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                {
                    inner.entries.remove(&victim);
                    tchimera_obs::counter!("core.attridx.evictions").inc();
                }
            }
            tchimera_obs::counter!("core.attridx.builds").inc();
            let mut index = AttrIndex::default();
            for o in self.objects.values() {
                if let Some(slot) = o.attrs.get(attr) {
                    index.index_slot(o.oid, slot, now);
                }
            }
            inner
                .entries
                .insert(attr.clone(), CacheEntry { last_used: tick, index });
        }
        let entry = inner.entries.get_mut(attr).expect("entry just ensured");
        entry.last_used = tick;
        tchimera_obs::counter!("core.attridx.probes").inc();
        let out = entry.index.probe(values, window, now);
        if keys_changed {
            self.attr_idx.publish_len(&inner);
        }
        Some(out)
    }

    /// Might a live index be maintained for `attr`? Lock-free (two atomic
    /// loads + one hash); may report a false positive, in which case the
    /// record hook locks, finds no entry and no-ops — the caller only
    /// uses this to decide whether to capture pre-mutation state.
    pub(crate) fn attridx_covers(&self, attr: &AttrName) -> bool {
        self.attr_idx.maybe_covers(attr)
    }

    /// Index a freshly created object's initial slot values.
    pub(crate) fn attridx_on_create(&self, oid: Oid) {
        if !self.attr_idx.is_active() {
            return;
        }
        let Some(object) = self.objects.get(oid) else {
            return;
        };
        let now = self.clock;
        let mut inner = self.attr_idx.lock();
        let mut touched = false;
        for (attr, entry) in inner.entries.iter_mut() {
            if let Some(slot) = object.attrs.get(attr) {
                entry.index.index_slot(oid, slot, now);
                touched = true;
            }
        }
        if touched {
            tchimera_obs::counter!("core.attridx.incremental").inc();
        }
    }

    /// Mirror a successful temporal `set_attr` into the live index for
    /// `attr` (no-op if none is cached).
    pub(crate) fn attridx_set_temporal(
        &self,
        oid: Oid,
        attr: &AttrName,
        old_open: Option<(Value, Instant)>,
        new: &Value,
    ) {
        let now = self.clock;
        let mut inner = self.attr_idx.lock();
        if let Some(entry) = inner.entries.get_mut(attr) {
            entry.index.record_set_temporal(oid, old_open, new, now);
            tchimera_obs::counter!("core.attridx.incremental").inc();
        }
    }

    /// Mirror a successful static `set_attr` into the live index for
    /// `attr` (no-op if none is cached).
    pub(crate) fn attridx_set_static(
        &self,
        oid: Oid,
        attr: &AttrName,
        old: &Value,
        new: &Value,
    ) {
        let mut inner = self.attr_idx.lock();
        if let Some(entry) = inner.entries.get_mut(attr) {
            entry.index.record_set_static(oid, old, new);
            tchimera_obs::counter!("core.attridx.incremental").inc();
        }
    }

    /// Mirror `terminate_object`: `runs` carries the open run of each
    /// temporal slot as captured just before closing.
    pub(crate) fn attridx_on_terminate(&self, oid: Oid, runs: &[(AttrName, Value, Instant)]) {
        let now = self.clock;
        let mut inner = self.attr_idx.lock();
        let mut touched = false;
        for (attr, value, start) in runs {
            if let Some(entry) = inner.entries.get_mut(attr) {
                entry.index.record_terminate(oid, value, *start, now);
                touched = true;
            }
        }
        if touched {
            tchimera_obs::counter!("core.attridx.incremental").inc();
        }
    }

    /// Rebuild `oid`'s entries in every live index from its current
    /// state — `O(object state)`, used by `migrate` (slots can be
    /// dropped, converted or re-initialized) and the test-only
    /// `replace_object_for_test`.
    pub(crate) fn attridx_reconcile(&self, oid: Oid) {
        if !self.attr_idx.is_active() {
            return;
        }
        let now = self.clock;
        let object = self.objects.get(oid);
        let mut inner = self.attr_idx.lock();
        if inner.entries.is_empty() {
            return;
        }
        tchimera_obs::counter!("core.attridx.reconciles").inc();
        for (attr, entry) in inner.entries.iter_mut() {
            entry.index.remove_object(oid);
            if let Some(slot) = object.and_then(|o| o.attrs.get(attr)) {
                entry.index.index_slot(oid, slot, now);
            }
        }
    }

    /// Whether the capture of pre-mutation state for the index hooks is
    /// needed at all (lock-free when nothing is cached).
    pub(crate) fn attridx_active(&self) -> bool {
        self.attr_idx.is_active()
    }

    /// Scrub check for the attribute-index cache: rebuild every cached
    /// per-attribute index fresh from base state and compare with the
    /// incrementally maintained copy. Diverged entries are dropped when
    /// `repair` is set — the cache is authoritative-free (lazily rebuilt
    /// on the next probe), so invalidate-and-rebuild is a complete
    /// repair. Returns `(entries checked, entries diverged)`.
    pub(crate) fn attridx_scrub(&self, repair: bool) -> (u64, u64) {
        if !self.attr_idx.is_active() {
            return (0, 0);
        }
        let now = self.clock;
        let mut inner = self.attr_idx.lock();
        let checked = inner.entries.len() as u64;
        let mut diverged: Vec<AttrName> = Vec::new();
        for (attr, entry) in inner.entries.iter() {
            let mut fresh = AttrIndex::default();
            for o in self.objects.values() {
                if let Some(slot) = o.attrs.get(attr) {
                    fresh.index_slot(o.oid, slot, now);
                }
            }
            if entry.index != fresh {
                diverged.push(attr.clone());
            }
        }
        if repair && !diverged.is_empty() {
            for attr in &diverged {
                inner.entries.remove(attr);
            }
            self.attr_idx.publish_len(&inner);
        }
        (checked, diverged.len() as u64)
    }

    /// Deterministic corruption hook for scrubber tests: plant a phantom
    /// holding inside one cached per-attribute index. Returns `false`
    /// when nothing is cached (nothing to corrupt).
    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn attridx_corrupt_for_test(&self, r: u64) -> bool {
        let mut inner = self.attr_idx.lock();
        let n = inner.entries.len();
        if n == 0 {
            return false;
        }
        let entry = inner
            .entries
            .values_mut()
            .nth(r as usize % n)
            .expect("index bounded by len");
        entry.index.values.entry(Value::Int(i64::MIN + 7)).or_default().insert(
            Oid(u64::MAX - 5),
            Holding {
                always: true,
                ..Holding::default()
            },
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::attrs;
    use crate::{ClassDef, Type};

    fn dept_db() -> (Database, ClassId, AttrName) {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("employee")
                .attr("dept", Type::temporal(Type::STRING))
                .attr("badge", Type::STRING),
        )
        .unwrap();
        (db, ClassId::from("employee"), AttrName::from("dept"))
    }

    fn probe_now(db: &Database, class: &ClassId, attr: &AttrName, v: &str) -> Vec<Oid> {
        db.attr_index_probe(class, attr, &[Value::str(v)], Interval::point(db.now()))
            .expect("covered probe")
    }

    #[test]
    fn probe_finds_current_holders_and_tracks_set_attr() {
        let (mut db, class, dept) = dept_db();
        let a = db
            .create_object(&class, attrs([("dept", Value::str("r&d"))]))
            .unwrap();
        let b = db
            .create_object(&class, attrs([("dept", Value::str("sales"))]))
            .unwrap();
        assert_eq!(probe_now(&db, &class, &dept, "r&d"), vec![a]);
        assert_eq!(probe_now(&db, &class, &dept, "sales"), vec![b]);

        // Incremental maintenance: move `a` to sales at t=1.
        db.tick();
        db.set_attr(a, &dept, Value::str("sales")).unwrap();
        assert_eq!(probe_now(&db, &class, &dept, "sales"), vec![a, b]);
        // `a` no longer holds r&d now, but did at t=0.
        assert_eq!(probe_now(&db, &class, &dept, "r&d"), Vec::<Oid>::new());
        assert_eq!(
            db.attr_index_probe(&class, &dept, &[Value::str("r&d")], Interval::from_ticks(0, 0))
                .unwrap(),
            vec![a]
        );
    }

    #[test]
    fn same_instant_replace_leaves_no_trace() {
        let (mut db, class, dept) = dept_db();
        let a = db
            .create_object(&class, attrs([("dept", Value::str("x"))]))
            .unwrap();
        db.tick();
        db.set_attr(a, &dept, Value::str("y")).unwrap();
        // Touch the index so it is live, then replace within the instant.
        assert_eq!(probe_now(&db, &class, &dept, "y"), vec![a]);
        db.set_attr(a, &dept, Value::str("z")).unwrap();
        // The y-run was popped (same-instant replace): no holder at any t.
        let whole = Interval::from_ticks(0, 100);
        assert_eq!(
            db.attr_index_probe(&class, &dept, &[Value::str("y")], whole).unwrap(),
            Vec::<Oid>::new()
        );
        assert_eq!(probe_now(&db, &class, &dept, "z"), vec![a]);
        // Matches the model: attr_at(1) is z, not y.
        assert_eq!(db.attr_at(a, &dept, db.now()).unwrap(), Value::str("z"));
    }

    #[test]
    fn terminate_closes_open_runs_at_now() {
        let (mut db, class, dept) = dept_db();
        let a = db
            .create_object(&class, attrs([("dept", Value::str("ops"))]))
            .unwrap();
        assert_eq!(probe_now(&db, &class, &dept, "ops"), vec![a]);
        db.advance_to(Instant(5)).unwrap();
        db.terminate_object(a).unwrap();
        // Held through t=5 (lifespan ends at now inclusive)…
        assert_eq!(
            db.attr_index_probe(&class, &dept, &[Value::str("ops")], Interval::from_ticks(5, 5))
                .unwrap(),
            vec![a]
        );
        // …but not after.
        db.advance_to(Instant(7)).unwrap();
        assert_eq!(
            db.attr_index_probe(&class, &dept, &[Value::str("ops")], Interval::from_ticks(6, 7))
                .unwrap(),
            Vec::<Oid>::new()
        );
    }

    #[test]
    fn static_attrs_are_not_covered_but_do_not_poison_temporal_probes() {
        let (mut db, class, _) = dept_db();
        let badge = AttrName::from("badge");
        db.create_object(&class, attrs([("badge", Value::str("b-1"))]))
            .unwrap();
        // Static declaration → probe not covered.
        assert!(db
            .attr_index_probe(&class, &badge, &[Value::str("b-1")], Interval::point(db.now()))
            .is_none());
        // Unknown class/attr, empty values, null values, empty window.
        assert!(db
            .attr_index_probe(&ClassId::from("nope"), &badge, &[Value::str("x")], Interval::point(db.now()))
            .is_none());
        assert!(db
            .attr_index_probe(&class, &AttrName::from("nope"), &[Value::str("x")], Interval::point(db.now()))
            .is_none());
        assert!(db
            .attr_index_probe(&class, &AttrName::from("dept"), &[], Interval::point(db.now()))
            .is_none());
        assert!(db
            .attr_index_probe(&class, &AttrName::from("dept"), &[Value::Null], Interval::point(db.now()))
            .is_none());
        assert!(db
            .attr_index_probe(
                &class,
                &AttrName::from("dept"),
                &[Value::str("x")],
                Interval::from_ticks(3, 1)
            )
            .is_none());
    }

    #[test]
    fn ddl_invalidates_the_cache() {
        let (mut db, class, dept) = dept_db();
        let a = db
            .create_object(&class, attrs([("dept", Value::str("r&d"))]))
            .unwrap();
        assert_eq!(probe_now(&db, &class, &dept, "r&d"), vec![a]);
        let before = tchimera_obs::snapshot()
            .counter("core.attridx.invalidations")
            .unwrap_or(0);
        db.define_class(ClassDef::new("unrelated").attr("x", Type::INTEGER))
            .unwrap();
        // The next probe must rebuild (stale caches are dropped wholesale)
        // and still answer correctly.
        assert_eq!(probe_now(&db, &class, &dept, "r&d"), vec![a]);
        let after = tchimera_obs::snapshot()
            .counter("core.attridx.invalidations")
            .unwrap_or(0);
        assert!(after > before, "generation bump must drop the cache");
    }

    #[test]
    fn migration_reconciles_entries() {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("person").attr("dept", Type::temporal(Type::STRING)),
        )
        .unwrap();
        db.define_class(ClassDef::new("ghost").isa("person")).unwrap();
        let class = ClassId::from("person");
        let dept = AttrName::from("dept");
        let a = db
            .create_object(&class, attrs([("dept", Value::str("r&d"))]))
            .unwrap();
        assert_eq!(probe_now(&db, &class, &dept, "r&d"), vec![a]);
        db.tick();
        // Subclass keeps the temporal attr; the reconcile keeps the entry.
        db.migrate(a, &ClassId::from("ghost"), attrs::<&str, _>([])).unwrap();
        assert_eq!(probe_now(&db, &class, &dept, "r&d"), vec![a]);
    }

    #[test]
    fn lru_evicts_beyond_cap() {
        let mut db = Database::new();
        let mut def = ClassDef::new("wide");
        for i in 0..=ATTR_INDEX_CAP {
            def = def.attr(format!("a{i}").as_str(), Type::temporal(Type::INTEGER));
        }
        db.define_class(def).unwrap();
        let class = ClassId::from("wide");
        db.create_object(&class, attrs([("a0", Value::Int(1))])).unwrap();
        let evictions = || {
            tchimera_obs::snapshot()
                .counter("core.attridx.evictions")
                .unwrap_or(0)
        };
        let before = evictions();
        for i in 0..=ATTR_INDEX_CAP {
            let attr = AttrName::from(format!("a{i}").as_str());
            db.attr_index_probe(&class, &attr, &[Value::Int(1)], Interval::point(db.now()))
                .unwrap();
        }
        assert!(evictions() > before, "cap + 1 builds must evict");
    }

    #[test]
    fn a_probe_hit_does_not_republish_the_key_set() {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("employee")
                .attr("dept", Type::temporal(Type::STRING))
                .attr("site", Type::temporal(Type::STRING)),
        )
        .unwrap();
        let (class, dept) = (ClassId::from("employee"), AttrName::from("dept"));
        let a = db
            .create_object(&class, attrs([("dept", Value::str("r&d")), ("site", Value::str("n"))]))
            .unwrap();
        assert_eq!(probe_now(&db, &class, &dept, "r&d"), vec![a]);
        assert!(db.attridx_covers(&dept));
        // Sentinels no publish would write: a hit must leave both alone.
        db.attr_idx.bloom.store(u64::MAX, Ordering::Release);
        db.attr_idx.len.store(99, Ordering::Release);
        for _ in 0..1_000 {
            assert_eq!(probe_now(&db, &class, &dept, "r&d"), vec![a]);
        }
        assert_eq!(db.attr_idx.bloom.load(Ordering::Acquire), u64::MAX);
        assert_eq!(db.attr_idx.len.load(Ordering::Acquire), 99);
        // A build changes the key set and republishes it; the write hook
        // still sees both attributes.
        let site = AttrName::from("site");
        assert_eq!(probe_now(&db, &class, &site, "n"), vec![a]);
        assert_eq!(db.attr_idx.len.load(Ordering::Acquire), 2);
        assert_eq!(
            db.attr_idx.bloom.load(Ordering::Acquire),
            bloom_bit(&dept) | bloom_bit(&site)
        );
        db.tick();
        db.set_attr(a, &dept, Value::str("ops")).unwrap();
        assert_eq!(probe_now(&db, &class, &dept, "ops"), vec![a]);
        assert_eq!(probe_now(&db, &class, &dept, "r&d"), Vec::<Oid>::new());
    }

    /// A covered probe is the answer to its conjunct — no executor
    /// re-reads the object behind a holder — so index damage is a wrong
    /// row in either direction: a phantom holder adds one, a lost holder
    /// drops one. One scrub cycle finds both (the cached index no longer
    /// equals a rebuild from base state) and drops the entry; the next
    /// probe rebuilds it.
    #[test]
    fn scrub_detects_and_rebuilds_phantom_and_missing_holders() {
        type Damage = fn(&mut AttrIndex, Oid, Oid);
        let phantom: Damage = |index, _, b| {
            index.holding_mut(b, &Value::str("r&d")).open_since = Some(Instant(0));
        };
        let missing: Damage = |index, a, _| {
            index.values.get_mut(&Value::str("r&d")).unwrap().remove(&a);
        };
        for (damage, wrong) in [(phantom, 2), (missing, 0)] {
            let (mut db, class, dept) = dept_db();
            let a = db.create_object(&class, attrs([("dept", Value::str("r&d"))])).unwrap();
            let b = db.create_object(&class, attrs([("dept", Value::str("sales"))])).unwrap();
            db.tick();
            assert_eq!(probe_now(&db, &class, &dept, "r&d"), vec![a]);
            assert!(db.scrub_cycle().clean());

            let mut inner = db.attr_idx.lock();
            damage(&mut inner.entries.get_mut(&dept).unwrap().index, a, b);
            drop(inner);
            assert_eq!(probe_now(&db, &class, &dept, "r&d").len(), wrong, "the damage shows");

            let report = db.scrub_cycle();
            assert_eq!((report.attridx_checked, report.attridx_dropped), (1, 1));
            assert!(report.fully_repaired());
            assert!(!db.attridx_active(), "the diverged entry is dropped");
            assert_eq!(probe_now(&db, &class, &dept, "r&d"), vec![a], "rebuilt on the next probe");
            assert!(db.scrub_cycle().clean());
        }
    }

    #[test]
    fn clone_starts_with_an_empty_cache() {
        let (mut db, class, dept) = dept_db();
        let a = db
            .create_object(&class, attrs([("dept", Value::str("r&d"))]))
            .unwrap();
        assert_eq!(probe_now(&db, &class, &dept, "r&d"), vec![a]);
        let cloned = db.clone();
        assert!(!cloned.attridx_active());
        // …and still answers correctly after its own lazy build.
        assert_eq!(probe_now(&cloned, &class, &dept, "r&d"), vec![a]);
    }
}
