//! Time-sorted extent indexing.
//!
//! The paper's `π(c, t)` (Section 3.2) asks for the *set* of members of a
//! class at an instant. The seed implementation answered it by scanning
//! every per-oid membership history of the class — `O(members ever)` per
//! query. This module adds an incremental, time-sorted index so extent
//! stabbing queries cost `O(log events + Δ)` where `Δ` is the distance to
//! the nearest checkpoint, while the per-oid histories remain the source
//! of truth for `membership_of`/`c_lifespan`.
//!
//! # Design
//!
//! Membership changes are append-mostly in time (all mutations happen at
//! the logical clock's `now`), so they are kept as a time-sorted log of
//! signed events: `+1` when an oid joins the extent at `t`, `−1` when it
//! leaves from `t` on. Membership of `i` at `t` is then *the sum of
//! `i`'s events at instants `≤ t`* — an order-free formulation that makes
//! same-instant join/leave pairs (e.g. a migrate bouncing through a class
//! in one tick) trivially correct.
//!
//! Three structures answer queries:
//!
//! * `events` — the sorted log (rare out-of-order inserts, e.g. a
//!   creation at `t` racing a termination recorded at `t + 1`, splice in
//!   place and invalidate later checkpoints);
//! * `checkpoints` — full sorted member sets taken every
//!   `max(256, members/8)` events, bounding replay length while keeping
//!   total checkpoint memory linear in the event count;
//! * `current` — the live member set (the sum of *all* events), serving
//!   every `t` nearer to the end of the log than to a checkpoint by
//!   undoing the trailing events: the overwhelmingly common "query at
//!   now" undoes nothing, or just the leave events a same-tick
//!   termination recorded at `now + 1`.
//!
//! Counting members ([`Membership::count_at`]) never builds the set, and
//! asking whether *one* oid is a member ([`Membership::is_member_at`])
//! reads that oid's history alone — an index-seeded query needs only
//! those two, so its cost does not follow the extent's size.

use std::collections::{BTreeMap, BTreeSet};

use tchimera_temporal::{Instant, TemporalValue};

use crate::error::Result;
use crate::ident::{Oid, OidMap, OidSet};

/// One membership change: `delta = +1` (join) or `−1` (leave), effective
/// from instant `at` onward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Event {
    at: Instant,
    oid: Oid,
    delta: i32,
}

/// A full member-set snapshot after the first `applied` events.
#[derive(Clone, Debug)]
struct Checkpoint {
    applied: usize,
    /// Sorted member oids.
    members: Vec<Oid>,
}

/// Minimum number of events between checkpoints.
const MIN_CHECKPOINT_GAP: usize = 256;

/// The time-sorted extent index of one class.
#[derive(Clone, Debug, Default)]
struct ExtentIndex {
    events: Vec<Event>,
    checkpoints: Vec<Checkpoint>,
    current: BTreeSet<Oid>,
}

impl ExtentIndex {
    /// Record a membership change effective from `at`.
    fn record(&mut self, at: Instant, oid: Oid, delta: i32) {
        let pos = self.events.partition_point(|e| e.at <= at);
        if pos < self.events.len() {
            // Out-of-order insert (bounded displacement: only events
            // recorded at `now + 1` by a same-instant termination can sort
            // later). Checkpoints summarizing a prefix that now shifts are
            // no longer prefixes — drop them.
            while self
                .checkpoints
                .last()
                .is_some_and(|c| c.applied > pos)
            {
                self.checkpoints.pop();
            }
        }
        self.events.insert(pos, Event { at, oid, delta });
        if delta > 0 {
            self.current.insert(oid);
        } else {
            self.current.remove(&oid);
        }
        let since_last = self.events.len()
            - self.checkpoints.last().map_or(0, |c| c.applied);
        if since_last >= MIN_CHECKPOINT_GAP.max(self.current.len() / 8) {
            tchimera_obs::counter!("core.extent.checkpoints").inc();
            self.checkpoints.push(Checkpoint {
                applied: self.events.len(),
                members: self.current.iter().copied().collect(),
            });
        }
    }

    /// The index over a complete, time-sorted event log. Checkpoints
    /// fall where [`ExtentIndex::record`] would have put them had the
    /// events arrived one by one: the member count it reads off its live
    /// set is the running sum of the deltas here (one oid's joins and
    /// leaves alternate), and each checkpoint's member set is the
    /// previous one replayed forward — no live set is kept along the way.
    fn from_sorted(events: Vec<Event>) -> ExtentIndex {
        let mut ix = ExtentIndex {
            events,
            ..ExtentIndex::default()
        };
        let (mut members, mut applied) = (0i64, 0usize);
        for n in 1..=ix.events.len() {
            members += i64::from(ix.events[n - 1].delta);
            let gap = usize::try_from(members / 8).unwrap_or(0);
            if n - applied >= MIN_CHECKPOINT_GAP.max(gap) {
                let members = ix.replay(n, ix.checkpoints.last());
                ix.checkpoints.push(Checkpoint { applied: n, members });
                applied = n;
            }
        }
        tchimera_obs::counter!("core.extent.checkpoints").add(ix.checkpoints.len() as u64);
        ix.current = (ix.replay(ix.events.len(), ix.checkpoints.last()).into_iter()).collect();
        ix
    }

    /// Join events strictly after `lo` and at or before `hi`.
    fn joins_in(&self, lo: Instant, hi: Instant) -> impl Iterator<Item = (Instant, Oid)> + '_ {
        let a = self.events.partition_point(|e| e.at <= lo);
        let b = self.events.partition_point(|e| e.at <= hi);
        self.events[a..b]
            .iter()
            .filter(|e| e.delta > 0)
            .map(|e| (e.at, e.oid))
    }

    /// How many events are effective at or before `t`, and the latest
    /// checkpoint covering a prefix of them.
    fn locate(&self, t: Instant) -> (usize, Option<&Checkpoint>) {
        let idx = self.events.partition_point(|e| e.at <= t);
        let ck = self
            .checkpoints
            .partition_point(|c| c.applied <= idx)
            .checked_sub(1)
            .map(|k| &self.checkpoints[k]);
        (idx, ck)
    }

    /// Is the state after `idx` events nearer to `current` (undo the
    /// trailing events) than to the checkpoint at `applied` (replay
    /// forward)? A read at `now` right after a same-tick termination has
    /// exactly the leave events recorded at `now + 1` to undo.
    fn nearer_current(&self, idx: usize, applied: usize) -> bool {
        self.events.len() - idx <= idx - applied
    }

    /// The sorted member set at instant `t`, under clock `now`.
    fn members_at(&self, t: Instant, now: Instant) -> Vec<Oid> {
        if t > now || self.events.is_empty() {
            tchimera_obs::counter!("core.extent.at_current").inc();
            return Vec::new();
        }
        let (idx, ck) = self.locate(t);
        if self.nearer_current(idx, ck.map_or(0, |c| c.applied)) {
            tchimera_obs::counter!("core.extent.at_current").inc();
            return merge(self.current.iter().copied(), &self.events[idx..], -1);
        }
        tchimera_obs::counter!("core.extent.at_replay").inc();
        tchimera_obs::counter!("core.extent.replayed_events")
            .add((idx - ck.map_or(0, |c| c.applied)) as u64);
        self.replay(idx, ck)
    }

    /// The member set after the first `idx` events, replayed forward from
    /// checkpoint `ck` — never consults `current`, so the scrubber can
    /// check the event log and the current-member set independently.
    fn replay(&self, idx: usize, ck: Option<&Checkpoint>) -> Vec<Oid> {
        let (base, applied): (&[Oid], usize) =
            ck.map_or((&[], 0), |c| (&c.members, c.applied));
        merge(base.iter().copied(), &self.events[applied..idx], 1)
    }

    /// `members_at(t, now).len()` without building the set: every oid's
    /// events sum to 0 or 1 over any prefix of the log (joins and leaves
    /// of one oid alternate), so the member count moves by the plain sum
    /// of the deltas between two prefixes.
    fn count_at(&self, t: Instant, now: Instant) -> usize {
        if t > now || self.events.is_empty() {
            return 0;
        }
        let (idx, ck) = self.locate(t);
        let applied = ck.map_or(0, |c| c.applied);
        let net = |events: &[Event]| events.iter().map(|e| i64::from(e.delta)).sum::<i64>();
        let n = if self.nearer_current(idx, applied) {
            self.current.len() as i64 - net(&self.events[idx..])
        } else {
            ck.map_or(0, |c| c.members.len()) as i64 + net(&self.events[applied..idx])
        };
        usize::try_from(n).unwrap_or(0)
    }
}

/// Apply `sign ×` the net per-oid delta of `events` to the sorted member
/// set `base`: forward replay from a checkpoint with `sign = 1`, undoing
/// a trailing suffix from the current set with `−1`.
fn merge(base: impl ExactSizeIterator<Item = Oid>, events: &[Event], sign: i32) -> Vec<Oid> {
    let mut net: BTreeMap<Oid, i32> = BTreeMap::new();
    for e in events {
        *net.entry(e.oid).or_insert(0) += sign * e.delta;
    }
    // Merge the sorted base set with the sorted delta map.
    let mut out = Vec::with_capacity(base.len() + net.len());
    let mut deltas = net.into_iter().peekable();
    let mut base = base.peekable();
    loop {
        match (base.peek().copied(), deltas.peek().copied()) {
            (Some(b), Some((d, _))) if b < d => {
                out.push(b);
                base.next();
            }
            (Some(b), Some((d, n))) if b == d => {
                // Same oid in base and delta window: member iff the base
                // count (1) plus the net change is positive.
                base.next();
                deltas.next();
                if 1 + n > 0 {
                    out.push(b);
                }
            }
            (_, Some((d, n))) => {
                deltas.next();
                if n > 0 {
                    out.push(d);
                }
            }
            (Some(b), None) => {
                out.push(b);
                base.next();
            }
            (None, None) => break,
        }
    }
    out
}

/// The boundary events of `histories`, unsorted: every run joins at its
/// start and — a closed run `[s, e]` — leaves at `e + 1`, exactly the
/// instants the live [`open`](Membership::open) /
/// [`close`](Membership::close) /
/// [`close_before`](Membership::close_before) paths record.
fn history_events(histories: &OidMap<TemporalValue<()>>) -> Vec<Event> {
    let mut events: Vec<Event> = Vec::with_capacity(histories.len());
    for (&oid, h) in histories {
        for e in h.entries() {
            events.push(Event { at: e.start, oid, delta: 1 });
            if let tchimera_temporal::TimeBound::Fixed(end) = e.end {
                events.push(Event { at: end.next(), oid, delta: -1 });
            }
        }
    }
    events
}

/// `events` reduced to the net delta per `(at, oid)`, zero entries
/// dropped, in `(at, oid)` order. Two logs in which each oid's joins and
/// leaves alternate describe the same membership function exactly when
/// they reduce to the same list, whatever their order within an instant
/// and whatever cancelling pairs (a same-instant bounce) they carry.
fn net_per_instant_and_oid(mut events: Vec<Event>) -> Vec<Event> {
    events.sort_unstable_by_key(|e| (e.at, e.oid));
    events.dedup_by(|e, kept| {
        let same = (e.at, e.oid) == (kept.at, kept.oid);
        if same {
            kept.delta += e.delta;
        }
        same
    });
    events.retain(|e| e.delta != 0);
    events
}

/// Fold `events` into the member set `live`; `false` on a join of a
/// member, a leave of a non-member or a delta other than `±1` — one
/// oid's events must alternate, which is what a checkpoint replay and
/// [`ExtentIndex::count_at`] rely on.
fn fold(live: &mut OidSet, events: &[Event]) -> bool {
    events.iter().all(|e| match e.delta {
        1 => live.insert(e.oid),
        -1 => live.remove(&e.oid),
        _ => false,
    })
}

// Calls of the linear-scan oracles on this thread, so a test can assert
// that a path never scans every history.
#[cfg(any(test, feature = "testing"))]
thread_local! {
    static SCAN_ORACLE_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times the extent index's linear-scan oracles (behind
/// [`Class::ext_at_scan`](crate::Class::ext_at_scan) and friends, and
/// every debug-build `debug_assert` of an indexed read) ran on the
/// calling thread. Test-only instrumentation.
#[cfg(any(test, feature = "testing"))]
pub fn scan_oracle_calls() -> u64 {
    SCAN_ORACLE_CALLS.with(std::cell::Cell::get)
}

/// A member no history ever saw: what the test corruptor plants.
#[cfg(any(test, feature = "testing"))]
const FOREIGN: Oid = Oid(u64::MAX - 1);

fn count_scan_oracle_call() {
    #[cfg(any(test, feature = "testing"))]
    SCAN_ORACLE_CALLS.with(|c| c.set(c.get() + 1));
}

/// The membership store of one class: per-oid boolean histories (the
/// source of truth realizing the paper's `ext`/`proper-ext` temporal
/// attributes) plus the time-sorted [`ExtentIndex`] answering set-at-`t`
/// queries without scanning every history.
///
/// All mutations go through [`open`](Membership::open) /
/// [`close`](Membership::close) / [`close_before`](Membership::close_before)
/// so the two representations can never diverge.
#[derive(Clone, Debug, Default)]
pub(crate) struct Membership {
    histories: OidMap<TemporalValue<()>>,
    index: ExtentIndex,
}

impl Membership {
    /// Open a membership run for `oid` from `now` (no-op when already a
    /// member).
    pub(crate) fn open(&mut self, oid: Oid, now: Instant) -> Result<()> {
        let h = self.histories.entry(oid).or_default();
        if h.has_open_run() {
            return Ok(());
        }
        h.set_from(now, ())?;
        self.index.record(now, oid, 1);
        Ok(())
    }

    /// Close the open run at `now` inclusive (termination discipline):
    /// the oid stays a member through `now`.
    pub(crate) fn close(&mut self, oid: Oid, now: Instant) {
        let Some(h) = self.histories.get_mut(&oid) else {
            return;
        };
        if !h.has_open_run() {
            return;
        }
        // An open run implies a last entry; a history corrupted out of
        // that invariant must degrade to a no-op close, not a panic (the
        // scrubber runs these paths against deliberately damaged state).
        let Some(start) = h.entries().last().map(|e| e.start) else {
            return;
        };
        h.close(now);
        // A run opened after `now` never held: cancel it from its start.
        let at = if start > now { start } else { now.next() };
        self.index.record(at, oid, -1);
    }

    /// Close the open run strictly before `now` (migration discipline):
    /// membership ends at `now − 1`; a run opened at or after `now` never
    /// held.
    pub(crate) fn close_before(&mut self, oid: Oid, now: Instant) {
        let Some(h) = self.histories.get_mut(&oid) else {
            return;
        };
        if !h.has_open_run() {
            return;
        }
        // Same degradation discipline as `close`: never panic on a
        // history missing the entry its open-run flag promises.
        let Some(start) = h.entries().last().map(|e| e.start) else {
            return;
        };
        h.close_before(now);
        let at = if start >= now { start } else { now };
        self.index.record(at, oid, -1);
    }

    /// Indexed stabbing query: the sorted member set at `t`.
    pub(crate) fn members_at(&self, t: Instant, now: Instant) -> Vec<Oid> {
        let out = self.index.members_at(t, now);
        debug_assert_eq!(out, self.members_at_scan(t, now), "extent index diverged");
        out
    }

    /// `members_at(t, now).len()` without materialising the set.
    pub(crate) fn count_at(&self, t: Instant, now: Instant) -> usize {
        let n = self.index.count_at(t, now);
        debug_assert_eq!(n, self.members_at_scan(t, now).len(), "extent count diverged");
        n
    }

    /// `members_during(lo, hi, now).len()`, allocating only for the oids
    /// that join inside the window.
    pub(crate) fn count_during(&self, lo: Instant, hi: Instant, now: Instant) -> usize {
        let hi = hi.min(now);
        if lo > hi {
            return 0;
        }
        let mut joined: Vec<Oid> = self
            .index
            .joins_in(lo, hi)
            .filter(|&(at, oid)| self.is_member_at(oid, at, now) && !self.is_member_at(oid, lo, now))
            .map(|(_, oid)| oid)
            .collect();
        joined.sort_unstable();
        joined.dedup();
        let n = self.index.count_at(lo, now) + joined.len();
        debug_assert_eq!(n, self.members_during_scan(lo, hi, now).len(), "extent count diverged");
        n
    }

    /// Was `oid` a member at `t`? Read from its own history (the source
    /// of truth) — `O(log runs)`, whatever the extent's size.
    pub(crate) fn is_member_at(&self, oid: Oid, t: Instant, now: Instant) -> bool {
        self.histories
            .get(&oid)
            .is_some_and(|h| h.is_defined_at(t, now))
    }

    /// Was `oid` a member at some instant of `[lo, hi]`?
    pub(crate) fn is_member_during(&self, oid: Oid, lo: Instant, hi: Instant, now: Instant) -> bool {
        let window = tchimera_temporal::Interval::new(lo, hi.min(now));
        self.histories.get(&oid).is_some_and(|h| {
            h.entries()
                .iter()
                .any(|e| e.interval(now).overlaps(window))
        })
    }

    /// Indexed window query: the sorted set of oids members at *some*
    /// instant of `[lo, hi]`. A member during the window either is a
    /// member at `lo` (runs are intervals, so any run covering a later
    /// window instant but starting at or before `lo` covers `lo`), or
    /// opens a run inside `(lo, hi]` — and every run opening emits a join
    /// event, so the event log locates those in `O(log events + joins in
    /// window)`. A join whose run was cancelled the same instant (e.g. a
    /// migrate bouncing through the class) is filtered out against the
    /// history.
    pub(crate) fn members_during(&self, lo: Instant, hi: Instant, now: Instant) -> Vec<Oid> {
        tchimera_obs::counter!("core.extent.during_queries").inc();
        let hi = hi.min(now);
        if lo > hi {
            return Vec::new();
        }
        let mut out = self.index.members_at(lo, now);
        for (at, oid) in self.index.joins_in(lo, hi) {
            if self.is_member_at(oid, at, now) {
                out.push(oid);
            }
        }
        out.sort_unstable();
        out.dedup();
        debug_assert_eq!(
            out,
            self.members_during_scan(lo, hi, now),
            "extent index diverged on window [{lo:?}, {hi:?}]"
        );
        out
    }

    /// Reference implementation of [`Membership::members_during`]: scan
    /// every history for a run overlapping the window.
    pub(crate) fn members_during_scan(
        &self,
        lo: Instant,
        hi: Instant,
        now: Instant,
    ) -> Vec<Oid> {
        count_scan_oracle_call();
        let mut v: Vec<Oid> = self
            .histories
            .keys()
            .copied()
            .filter(|&i| self.is_member_during(i, lo, hi, now))
            .collect();
        v.sort_unstable();
        v
    }

    /// Reference implementation: linear scan over every per-oid history.
    /// Kept as the equivalence baseline for property tests and benches.
    pub(crate) fn members_at_scan(&self, t: Instant, now: Instant) -> Vec<Oid> {
        count_scan_oracle_call();
        let mut v: Vec<Oid> = self
            .histories
            .iter()
            .filter(|(_, h)| h.is_defined_at(t, now))
            .map(|(&i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    /// The membership history of `oid`, if it was ever a member.
    pub(crate) fn history_of(&self, oid: Oid) -> Option<&TemporalValue<()>> {
        self.histories.get(&oid)
    }

    /// What one [`Membership::verify_index`] sweep touches: every index
    /// event, every history its comparison events are re-derived from,
    /// and every checkpoint member. The scrubber charges its budget and
    /// books `core.scrub.items` with this one number.
    pub(crate) fn verify_cost(&self) -> u64 {
        let members: usize = self.index.checkpoints.iter().map(|c| c.members.len()).sum();
        (self.index.events.len() + self.histories.len() + members) as u64
    }

    /// All oids ever members.
    pub(crate) fn oids(&self) -> impl Iterator<Item = Oid> + '_ {
        self.histories.keys().copied()
    }

    /// The raw per-oid histories (read-only).
    pub(crate) fn histories(&self) -> &OidMap<TemporalValue<()>> {
        &self.histories
    }

    /// Assert-free divergence check between the time-sorted index and the
    /// per-oid histories (the source of truth), in one pass over the
    /// events: `O(E log E + Σ|checkpoint|)` for `E` events, never a scan
    /// of every history per instant. The scrubber uses this instead of
    /// [`Membership::members_at`], whose `debug_assert` would abort the
    /// process on exactly the corruption being scrubbed for. `false` as
    /// soon as one of these fails:
    ///
    /// 1. the event log is sorted by instant (every read binary-searches
    ///    it);
    /// 2. it holds the histories' boundary events: both logs reduced to
    ///    the net delta per `(at, oid)` are equal, so the indexed
    ///    membership function equals the histories' at every instant;
    /// 3. one forward fold over the log, in which each oid's joins and
    ///    leaves alternate, equals every checkpoint at its `applied`
    ///    position (strictly increasing, within the log) and `current` at
    ///    the end — the two structures reads start from besides the log.
    pub(crate) fn verify_index(&self) -> bool {
        let ix = &self.index;
        if ix.events.windows(2).any(|w| w[0].at > w[1].at) {
            return false;
        }
        if net_per_instant_and_oid(ix.events.clone())
            != net_per_instant_and_oid(history_events(&self.histories))
        {
            return false;
        }
        if ix.checkpoints.windows(2).any(|w| w[0].applied >= w[1].applied)
            || ix.checkpoints.last().is_some_and(|c| c.applied > ix.events.len())
        {
            return false;
        }
        let mut live = OidSet::with_capacity_and_hasher(ix.current.len(), Default::default());
        let mut folded = 0;
        for ck in &ix.checkpoints {
            if !fold(&mut live, &ix.events[folded..ck.applied])
                || ck.members.len() != live.len()
                || ck.members.windows(2).any(|w| w[0] >= w[1])
                || !ck.members.iter().all(|o| live.contains(o))
            {
                return false;
            }
            folded = ck.applied;
        }
        fold(&mut live, &ix.events[folded..])
            && ix.current.len() == live.len()
            && ix.current.iter().all(|o| live.contains(o))
    }

    /// Rebuild the time-sorted index from the per-oid histories (repair
    /// rung 1: the histories are the source of truth, the index is
    /// derived). Digest-neutral — only the derived structure changes.
    pub(crate) fn rebuild_index(&mut self) {
        let histories = std::mem::take(&mut self.histories);
        *self = Membership::from_histories(histories);
    }

    /// Deterministic corruption hook for scrubber tests: damage the
    /// derived index (never the histories — they are the source of
    /// truth) in a way [`Membership::verify_index`] is guaranteed to
    /// detect. `r` seeds the choice of damage. Every mode also changes
    /// the answer of a read at some instant an event names, so a
    /// verifier that probes those instants detects it too.
    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn corrupt_index_for_test(&mut self, r: u64) {
        let ix = &mut self.index;
        let n = ix.events.len();
        let pick = (r / 5) as usize;
        match r % 5 {
            // Drop a genuine current member.
            1 if !ix.current.is_empty() => {
                let victim = *ix
                    .current
                    .iter()
                    .nth(pick % ix.current.len())
                    .expect("non-empty");
                ix.current.remove(&victim);
            }
            // Flip the delta of the last event an oid has at its instant,
            // so its membership at that instant flips. Later checkpoints
            // summarised the unflipped prefix: drop them.
            2 if n > 0 => {
                let last_of_oid_at_instant = |i: usize| {
                    let end = ix.events.partition_point(|e| e.at <= ix.events[i].at);
                    ix.events[i + 1..end].iter().all(|e| e.oid != ix.events[i].oid)
                };
                let i = (pick % n..n).find(|&i| last_of_oid_at_instant(i)).unwrap_or(n - 1);
                ix.events[i].delta = -ix.events[i].delta;
                ix.checkpoints.retain(|c| c.applied <= i);
            }
            // Drop an oid from, or add one to, a checkpoint that is not
            // the last. A dropped oid has no event between the checkpoint
            // and the end of the instant its last event belongs to, so
            // the first read the checkpoint serves misses it.
            3 if ix.checkpoints.len() >= 2 => {
                let k = pick % (ix.checkpoints.len() - 1);
                let applied = ix.checkpoints[k].applied;
                let served = applied
                    .checked_sub(1)
                    .map_or(0, |l| ix.events.partition_point(|e| e.at <= ix.events[l].at));
                let window = &ix.events[applied.min(served)..served];
                let members = &ix.checkpoints[k].members;
                let victim = (pick / 2 % 2 == 0)
                    .then(|| {
                        (0..members.len())
                            .map(|j| (pick + j) % members.len())
                            .find(|&j| window.iter().all(|e| e.oid != members[j]))
                    })
                    .flatten();
                let members = &mut ix.checkpoints[k].members;
                match victim {
                    Some(j) => {
                        members.remove(j);
                    }
                    None => {
                        let j = members.partition_point(|&o| o < FOREIGN);
                        members.insert(j, FOREIGN);
                    }
                }
            }
            // Swap two adjacent events of different instants, so the log
            // is no longer sorted. A checkpoint between them summarised a
            // prefix that no longer exists: drop it.
            4 if ix.events.windows(2).any(|w| w[0].at < w[1].at) => {
                let i = (0..n - 1)
                    .map(|k| (pick + k) % (n - 1))
                    .find(|&i| ix.events[i].at < ix.events[i + 1].at)
                    .expect("an instant boundary exists");
                ix.events.swap(i, i + 1);
                ix.checkpoints.retain(|c| c.applied != i + 1);
            }
            // A member the histories never saw, visible at `now`.
            _ => {
                ix.current.insert(FOREIGN);
            }
        }
    }

    /// Build a membership store (histories **and** the time-sorted
    /// index) from bare per-oid histories — the bulk builder behind
    /// [`Database::import_state`](crate::Database::import_state) and the
    /// scrubber's rebuild rung. The histories' boundary events (the
    /// ones [`Membership::verify_index`] compares with) get one sort into
    /// time order, leaves before joins at the same instant (the live
    /// close-then-reopen order); one sweep over the sorted log places the
    /// checkpoints.
    pub(crate) fn from_histories(histories: OidMap<TemporalValue<()>>) -> Membership {
        let mut events = history_events(&histories);
        events.sort_unstable_by_key(|e| (e.at, e.delta, e.oid));
        Membership {
            histories,
            index: ExtentIndex::from_sorted(events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(n: u64) -> Instant {
        Instant(n)
    }

    #[test]
    fn open_close_roundtrip() {
        let mut m = Membership::default();
        m.open(Oid(1), t(10)).unwrap();
        m.open(Oid(2), t(12)).unwrap();
        m.close(Oid(1), t(15));
        let now = t(20);
        assert_eq!(m.members_at(t(9), now), vec![]);
        assert_eq!(m.members_at(t(10), now), vec![Oid(1)]);
        assert_eq!(m.members_at(t(13), now), vec![Oid(1), Oid(2)]);
        assert_eq!(m.members_at(t(15), now), vec![Oid(1), Oid(2)]);
        assert_eq!(m.members_at(t(16), now), vec![Oid(2)]);
        assert_eq!(m.members_at(t(25), now), vec![]);
    }

    #[test]
    fn close_paths_degrade_to_no_ops_on_absent_or_closed_runs() {
        // Regression for the unwrap audit: `close`/`close_before` used to
        // assume a known oid with an open run; both assumptions break when
        // the scrubber replays these paths against damaged state, so each
        // must be a silent no-op rather than a panic or a spurious event.
        let mut m = Membership::default();
        m.open(Oid(1), t(10)).unwrap();
        let now = t(20);

        // Unknown oid: nothing to close.
        m.close(Oid(99), now);
        m.close_before(Oid(99), now);
        assert!(m.history_of(Oid(99)).is_none());

        // Already-closed run: the second close must not record a second
        // leave event (which would drive the net delta negative).
        m.close(Oid(1), t(12));
        m.close(Oid(1), t(14));
        m.close_before(Oid(1), t(14));
        assert_eq!(m.members_at(t(12), now), vec![Oid(1)]);
        assert_eq!(m.members_at(t(13), now), vec![]);

        // The index stayed coherent through all of it.
        assert!(m.verify_index());
        assert_eq!(m.members_at(t(13), now), m.members_at_scan(t(13), now));
    }

    #[test]
    fn same_instant_join_and_leave_cancels() {
        let mut m = Membership::default();
        m.open(Oid(7), t(5)).unwrap();
        // Migration away at the same instant: the run never held.
        m.close_before(Oid(7), t(5));
        let now = t(10);
        assert_eq!(m.members_at(t(5), now), vec![]);
        assert_eq!(m.members_at_scan(t(5), now), vec![]);
    }

    #[test]
    fn reopen_after_close() {
        let mut m = Membership::default();
        m.open(Oid(3), t(1)).unwrap();
        m.close_before(Oid(3), t(4)); // member over [1, 3]
        m.open(Oid(3), t(8)).unwrap();
        let now = t(12);
        assert_eq!(m.members_at(t(3), now), vec![Oid(3)]);
        assert_eq!(m.members_at(t(5), now), vec![]);
        assert_eq!(m.members_at(t(8), now), vec![Oid(3)]);
        assert_eq!(m.history_of(Oid(3)).unwrap().run_count(), 2);
    }

    #[test]
    fn out_of_order_insert_is_handled() {
        let mut m = Membership::default();
        m.open(Oid(1), t(5)).unwrap();
        // Termination records the leave at now + 1 …
        m.close(Oid(1), t(7));
        // … then another oid joins at 7, sorting before the leave at 8.
        m.open(Oid(2), t(7)).unwrap();
        let now = t(9);
        assert_eq!(m.members_at(t(7), now), vec![Oid(1), Oid(2)]);
        assert_eq!(m.members_at(t(8), now), vec![Oid(2)]);
    }

    #[test]
    fn checkpoints_agree_with_scan_on_long_logs() {
        let mut m = Membership::default();
        // Enough churn to cross several checkpoint boundaries.
        for k in 0..2000u64 {
            m.open(Oid(k % 700), t(k)).unwrap();
            if k % 3 == 0 {
                m.close_before(Oid((k / 2) % 700), t(k));
            }
        }
        let now = t(2200);
        for probe in [0, 1, 99, 500, 1234, 1999, 2100] {
            assert_eq!(
                m.members_at(t(probe), now),
                m.members_at_scan(t(probe), now),
                "diverged at t={probe}"
            );
        }
    }

    #[test]
    fn counts_and_single_oid_lookups_agree_with_the_sets() {
        let mut m = Membership::default();
        for k in 0..2000u64 {
            m.open(Oid(k % 700), t(k)).unwrap();
            if k % 3 == 0 {
                m.close_before(Oid((k / 2) % 700), t(k));
            }
            if k % 97 == 0 {
                // Termination discipline: the leave lands at `k + 1`.
                m.close(Oid((k / 3) % 700), t(k));
            }
        }
        let now = t(2000);
        // Probes on both sides of the undo-vs-replay routing decision.
        for probe in [0, 1, 99, 500, 1234, 1900, 1999, 2000, 2001] {
            let set = m.members_at_scan(t(probe), now);
            assert_eq!(m.members_at(t(probe), now), set, "set at t={probe}");
            assert_eq!(m.count_at(t(probe), now), set.len(), "count at t={probe}");
            for oid in [0, 1, 350, 699, 700] {
                assert_eq!(
                    m.is_member_at(Oid(oid), t(probe), now),
                    set.contains(&Oid(oid)),
                    "oid {oid} at t={probe}"
                );
            }
        }
        for (lo, hi) in [(0, 0), (10, 40), (600, 1300), (1990, 2005), (2001, 2005), (40, 10)] {
            let set = m.members_during_scan(t(lo), t(hi), now);
            assert_eq!(m.members_during(t(lo), t(hi), now), set, "set in [{lo}, {hi}]");
            assert_eq!(m.count_during(t(lo), t(hi), now), set.len(), "count in [{lo}, {hi}]");
            for oid in [0, 1, 350, 699, 700] {
                assert_eq!(
                    m.is_member_during(Oid(oid), t(lo), t(hi), now),
                    set.contains(&Oid(oid)),
                    "oid {oid} in [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn bulk_build_answers_like_incremental_maintenance() {
        let mut m = Membership::default();
        for k in 0..3000u64 {
            m.open(Oid(k % 900), t(k)).unwrap();
            if k % 3 == 0 {
                m.close_before(Oid((k / 2) % 900), t(k));
            }
            if k % 97 == 0 {
                m.close(Oid((k / 3) % 900), t(k));
            }
        }
        let now = t(3000);
        let bulk = Membership::from_histories(m.histories.clone());
        // Long enough to place checkpoints, and to route probes to both
        // of them and to the current set.
        assert!(bulk.index.checkpoints.len() > 2);
        assert!(bulk.index.checkpoints.windows(2).all(|w| w[0].applied < w[1].applied));
        assert_eq!(bulk.index.current, m.index.current);
        for probe in (0..=3001).step_by(7).chain([255, 256, 257, 2999, 3000]) {
            assert_eq!(bulk.members_at(t(probe), now), m.members_at(t(probe), now), "t={probe}");
            assert_eq!(bulk.count_at(t(probe), now), m.count_at(t(probe), now), "t={probe}");
        }
        assert_eq!(bulk.members_during(t(100), t(140), now), m.members_during(t(100), t(140), now));
        assert!(bulk.verify_index());
        // Nothing to index is nothing to build.
        let empty = Membership::from_histories(OidMap::default());
        assert!(empty.members_at(now, now).is_empty() && empty.verify_index());
    }

    #[test]
    fn a_read_at_now_after_a_same_tick_termination_is_served_from_current() {
        let mut m = Membership::default();
        // Enough history that the alternative is a long checkpoint replay.
        for k in 0..1000u64 {
            m.open(Oid(k), t(1 + k / 10)).unwrap();
        }
        let now = t(200);
        m.open(Oid(5000), now).unwrap();
        m.close(Oid(5000), now); // leave recorded at now + 1
        let (idx, ck) = m.index.locate(now);
        assert_eq!(m.index.events.len() - idx, 1, "one trailing event past now");
        assert!(
            m.index.nearer_current(idx, ck.map_or(0, |c| c.applied)),
            "undoing one event must beat replaying from the checkpoint"
        );
        let got = m.members_at(now, now);
        assert!(got.contains(&Oid(5000)), "still a member through now");
        assert_eq!(got, m.members_at_scan(now, now));
        assert_eq!(m.count_at(now, now), got.len());
        assert!(!m.members_at(now.next(), now.next()).contains(&Oid(5000)));
        assert!(m.verify_index());
    }

    #[test]
    fn future_instants_are_empty() {
        let mut m = Membership::default();
        m.open(Oid(1), t(5)).unwrap();
        assert_eq!(m.members_at(t(9), t(8)), vec![]);
        assert_eq!(m.members_at(t(8), t(8)), vec![Oid(1)]);
    }

    /// The probe-based verifier the event sweep replaced, kept as its
    /// oracle: at every instant either representation names (and `now`),
    /// the set replayed forward from the covering checkpoint must equal a
    /// scan of every history, and `current` must equal the net-delta fold
    /// of the whole log. `O(instants × histories)`; `None` on the first
    /// divergence, else the number of probes.
    fn verify_by_probes(m: &Membership, now: Instant) -> Option<u64> {
        let mut probes: BTreeSet<Instant> = BTreeSet::new();
        probes.insert(now);
        for h in m.histories.values() {
            for e in h.entries() {
                probes.insert(e.start);
                if let tchimera_temporal::TimeBound::Fixed(end) = e.end {
                    probes.insert(end);
                    probes.insert(end.next());
                }
            }
        }
        for e in &m.index.events {
            probes.insert(e.at);
        }
        for &t in &probes {
            let indexed = if t > now {
                Vec::new()
            } else {
                let (idx, ck) = m.index.locate(t);
                m.index.replay(idx, ck)
            };
            if indexed != m.members_at_scan(t, now) {
                return None;
            }
        }
        let mut net: BTreeMap<Oid, i32> = BTreeMap::new();
        for e in &m.index.events {
            *net.entry(e.oid).or_insert(0) += e.delta;
        }
        let replayed: BTreeSet<Oid> =
            net.into_iter().filter(|&(_, c)| c > 0).map(|(o, _)| o).collect();
        (replayed == m.index.current).then_some(probes.len() as u64 + 1)
    }

    /// A seeded churn of one membership store, long enough to place
    /// checkpoints: opens, termination closes (leave at `now + 1`),
    /// migration closes, same-tick bounces and create→terminate pairs
    /// followed by a join that sorts before the leave, the clock moving
    /// 0 or 1 tick per step. Returns the store and its clock.
    fn churn(rng: &mut StdRng) -> (Membership, Instant) {
        let oids = rng.gen_range(8u64..64);
        let mut m = Membership::default();
        let mut now = t(1);
        for _ in 0..rng.gen_range(1000..1500) {
            now = t(now.0 + rng.gen_range(0u64..2));
            let oid = Oid(rng.gen_range(0..oids));
            match rng.gen_range(0u32..7) {
                0..=2 => {
                    let _ = m.open(oid, now);
                }
                3 => m.close(oid, now),
                4 => m.close_before(oid, now),
                5 => {
                    let _ = m.open(oid, now);
                    m.close_before(oid, now);
                }
                _ => {
                    let _ = m.open(oid, now);
                    m.close(oid, now);
                    let _ = m.open(Oid(rng.gen_range(0..oids)), now);
                }
            }
        }
        (m, now)
    }

    /// The sweep and the probe oracle agree on 256 seeded stores — live
    /// and bulk-built — healthy, under every mode of
    /// `corrupt_index_for_test`, and with a self-consistent index of other
    /// histories (two oids' histories swapped: sorted, alternating,
    /// checkpoints and `current` right, every instant's net count right —
    /// only the per-`(at, oid)` comparison sees it).
    ///
    /// Mutation-checked: skipping the checkpoint comparison, skipping the
    /// sortedness check, or comparing net counts per instant instead of
    /// per `(at, oid)` each make it fail.
    #[test]
    fn sweep_verdict_equals_the_probe_verdict() {
        let mut hits = [0usize; 6];
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(0x5EED_0000 + case);
            let (live, clock) = churn(&mut rng);
            // One past the clock: leaves recorded at `now + 1` are probed
            // too, as the sweep compares every event whatever `now` is.
            let now = clock.next();
            let m = if case % 2 == 0 {
                live
            } else {
                Membership::from_histories(live.histories.clone())
            };
            assert!(m.index.checkpoints.len() >= 2, "case {case}: no checkpoints to check");
            assert!(m.verify_index(), "case {case}: healthy store flagged");
            assert!(verify_by_probes(&m, now).is_some(), "case {case}: oracle flagged");
            for mode in 0..5u64 {
                let mut bad = m.clone();
                bad.corrupt_index_for_test(mode + 5 * rng.gen_range(0u64..1 << 32));
                let sweep = bad.verify_index();
                assert_eq!(sweep, verify_by_probes(&bad, now).is_some(), "case {case} mode {mode}");
                assert!(!sweep, "case {case} mode {mode}: damage not detected");
                // Every mode but 0 falls back to mode 0 when inapplicable.
                hits[mode as usize] += usize::from(mode == 0 || !bad.index.current.contains(&FOREIGN));
            }
            let mut oids: Vec<Oid> = m.histories.keys().copied().collect();
            oids.sort_unstable();
            let domain = |o: Oid| m.histories[&o].domain(now);
            if let Some(w) = oids.windows(2).find(|w| domain(w[0]) != domain(w[1])) {
                let mut swapped = m.histories.clone();
                let (hx, hy) = (swapped.remove(&w[0]).unwrap(), swapped.remove(&w[1]).unwrap());
                swapped.insert(w[0], hy);
                swapped.insert(w[1], hx);
                let other = Membership {
                    histories: m.histories.clone(),
                    index: Membership::from_histories(swapped).index,
                };
                let sweep = other.verify_index();
                assert_eq!(sweep, verify_by_probes(&other, now).is_some(), "case {case} swapped");
                assert!(!sweep, "case {case}: index of other histories not detected");
                hits[5] += 1;
            }
        }
        assert!(hits.iter().all(|&h| h >= 64), "a case was rarely exercised: {hits:?}");
    }
}
