//! Temporal values: partial functions from `TIME` to a value domain.

use std::fmt;

use crate::{Instant, Interval, IntervalSet, TimeBound};

/// One maximal run of a temporal value: the value `value` holds over
/// `[start, end]`, where `end` may be the moving `now`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TemporalEntry<V> {
    /// First instant of the run.
    pub start: Instant,
    /// Last instant of the run; `TimeBound::Now` for the current run.
    pub end: TimeBound,
    /// The value held throughout the run.
    pub value: V,
}

impl<V> TemporalEntry<V> {
    /// Resolve the run's interval under the given clock.
    #[inline]
    pub fn interval(&self, now: Instant) -> Interval {
        Interval::new(self.start, self.end.resolve(now))
    }
}

/// Errors raised when constructing or updating a [`TemporalValue`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HistoryError {
    /// Two runs cover a common instant.
    Overlap,
    /// A run has `end < start`.
    EmptyRun,
    /// An update at instant `at` would rewrite already-recorded history.
    OverwritesPast {
        /// The offending instant.
        at: Instant,
    },
    /// An open (`now`-ended) run precedes a later run.
    OpenRunNotLast,
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Overlap => write!(f, "history runs overlap"),
            HistoryError::EmptyRun => write!(f, "history run has end < start"),
            HistoryError::OverwritesPast { at } => {
                write!(f, "update at {at} would overwrite recorded history")
            }
            HistoryError::OpenRunNotLast => write!(f, "open run must be the last run"),
        }
    }
}

impl std::error::Error for HistoryError {}

/// The value of a temporal type `temporal(T)`: a partial function
/// `f : TIME → [[T]]` (Definition 3.5), stored in the paper's efficient
/// representation — a set of pairs `{⟨τ1,v1⟩, …, ⟨τn,vn⟩}` where the `τi`
/// are disjoint intervals (Section 3.2).
///
/// # Canonical form
///
/// The representation is kept canonical at all times:
///
/// * runs are sorted by start instant and pairwise disjoint;
/// * adjacent runs with equal values are merged (maximal coalescing);
/// * at most one run is *open* (ends at the moving `now`) and it is the
///   last one.
///
/// Because the form is canonical, structural equality (`==`) coincides with
/// equality of the underlying partial functions for histories with the same
/// open/closed structure; [`TemporalValue::semantically_eq`] compares two
/// histories as functions resolved under an explicit clock, which is what
/// Definition 5.8 (value equality of objects) requires.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TemporalValue<V> {
    entries: Vec<TemporalEntry<V>>,
}

impl<V> Default for TemporalValue<V> {
    fn default() -> Self {
        TemporalValue {
            entries: Vec::new(),
        }
    }
}

impl<V: Clone + Eq> TemporalValue<V> {
    /// The everywhere-undefined partial function.
    #[must_use]
    pub fn new() -> TemporalValue<V> {
        TemporalValue::default()
    }

    /// A history with a single open run `⟨[start, now], value⟩`.
    #[must_use]
    pub fn starting_at(start: Instant, value: V) -> TemporalValue<V> {
        TemporalValue {
            entries: vec![TemporalEntry {
                start,
                end: TimeBound::Now,
                value,
            }],
        }
    }

    /// Build a history from `⟨interval, value⟩` pairs with fixed endpoints.
    ///
    /// Pairs may be given in any order; empty intervals are rejected, and
    /// overlapping intervals are an error. Adjacent equal values coalesce.
    pub fn from_pairs<I>(pairs: I) -> Result<TemporalValue<V>, HistoryError>
    where
        I: IntoIterator<Item = (Interval, V)>,
    {
        let mut entries: Vec<TemporalEntry<V>> = Vec::new();
        for (iv, v) in pairs {
            let (Some(lo), Some(hi)) = (iv.lo(), iv.hi()) else {
                return Err(HistoryError::EmptyRun);
            };
            entries.push(TemporalEntry {
                start: lo,
                end: TimeBound::Fixed(hi),
                value: v,
            });
        }
        entries.sort_by_key(|e| e.start);
        for w in entries.windows(2) {
            let prev_end = match w[0].end {
                TimeBound::Fixed(t) => t,
                TimeBound::Now => return Err(HistoryError::OpenRunNotLast),
            };
            if w[1].start <= prev_end {
                return Err(HistoryError::Overlap);
            }
        }
        let mut tv = TemporalValue { entries };
        tv.coalesce();
        Ok(tv)
    }

    /// Build from raw entries (possibly one trailing open run), validating
    /// and canonicalizing. The runs are sorted, checked and coalesced in
    /// place.
    pub fn from_entries(
        mut entries: Vec<TemporalEntry<V>>,
    ) -> Result<TemporalValue<V>, HistoryError> {
        entries.sort_by_key(|e| e.start);
        for w in entries.windows(2) {
            let prev_end = match w[0].end {
                TimeBound::Fixed(t) => t,
                TimeBound::Now => return Err(HistoryError::OpenRunNotLast),
            };
            if prev_end < w[0].start {
                return Err(HistoryError::EmptyRun);
            }
            if w[1].start <= prev_end {
                return Err(HistoryError::Overlap);
            }
        }
        if let Some(last) = entries.last() {
            if let TimeBound::Fixed(t) = last.end {
                if t < last.start {
                    return Err(HistoryError::EmptyRun);
                }
            }
        }
        let mut tv = TemporalValue { entries };
        tv.coalesce();
        Ok(tv)
    }

    /// Record that the value is `value` from instant `t` onwards (an open
    /// run). This is the normal mutation of a temporal attribute: histories
    /// grow at the current time, never by rewriting the past.
    ///
    /// * If the latest run is open and started at or before `t`, it is
    ///   closed at `t − 1` (or replaced in place when it started exactly at
    ///   `t`, or when the new value equals the old one nothing changes).
    /// * If recorded (fixed) history already covers `t`, the update is
    ///   rejected with [`HistoryError::OverwritesPast`].
    pub fn set_from(&mut self, t: Instant, value: V) -> Result<(), HistoryError> {
        match self.entries.last_mut() {
            None => {}
            Some(last) => match last.end {
                TimeBound::Now => {
                    if last.start > t {
                        return Err(HistoryError::OverwritesPast { at: t });
                    }
                    if last.value == value {
                        return Ok(()); // coalesce: same value continues
                    }
                    if last.start == t {
                        last.value = value;
                        self.coalesce();
                        return Ok(());
                    }
                    last.end = TimeBound::Fixed(t.prev().expect("t > start >= 0"));
                }
                TimeBound::Fixed(end) => {
                    if end >= t {
                        return Err(HistoryError::OverwritesPast { at: t });
                    }
                    // Coalesce with an adjacent equal-valued fixed run.
                    if end.next() == t && self.entries.last().unwrap().value == value {
                        self.entries.last_mut().unwrap().end = TimeBound::Now;
                        return Ok(());
                    }
                }
            },
        }
        self.entries.push(TemporalEntry {
            start: t,
            end: TimeBound::Now,
            value,
        });
        Ok(())
    }

    /// Close the open run at instant `t` (inclusive), if any. Used when a
    /// temporal attribute stops being part of an object — e.g. on migration
    /// to a class without it (Section 5.2) or on object termination; the
    /// recorded history is *kept*.
    ///
    /// If the open run started after `t`, the run never held and is
    /// removed. Returns `true` if there was an open run.
    pub fn close(&mut self, t: Instant) -> bool {
        match self.entries.last_mut() {
            Some(last) if last.end.is_now() => {
                if last.start > t {
                    self.entries.pop();
                } else {
                    last.end = TimeBound::Fixed(t);
                    self.coalesce();
                }
                true
            }
            _ => false,
        }
    }

    /// Close the open run so that it ends *strictly before* `t`: the run
    /// keeps `[start, t − 1]`, or is removed entirely when it started at or
    /// after `t` (it never held). This is the closing discipline of
    /// migration: at the migration instant the object already belongs to
    /// the new class, so old runs end the instant before — and a run
    /// opened at the very same instant never happened.
    ///
    /// Returns `true` if there was an open run.
    pub fn close_before(&mut self, t: Instant) -> bool {
        match self.entries.last_mut() {
            Some(last) if last.end.is_now() => {
                if last.start >= t {
                    self.entries.pop();
                } else {
                    last.end = TimeBound::Fixed(t.prev().expect("t > start >= 0"));
                    self.coalesce();
                }
                true
            }
            _ => false,
        }
    }

    /// `true` if the latest run is open (the attribute currently holds).
    pub fn has_open_run(&self) -> bool {
        self.entries.last().is_some_and(|e| e.end.is_now())
    }

    /// Overwrite the instants of `iv` with `value`, splitting any runs that
    /// partially overlap. Unlike [`TemporalValue::set_from`] this *may*
    /// rewrite history; it is the primitive used by correction utilities
    /// and by the general `from`-style loaders.
    pub fn overwrite(&mut self, iv: Interval, value: V) -> Result<(), HistoryError> {
        let (Some(lo), Some(hi)) = (iv.lo(), iv.hi()) else {
            return Err(HistoryError::EmptyRun);
        };
        let mut out: Vec<TemporalEntry<V>> = Vec::with_capacity(self.entries.len() + 2);
        let mut inserted = false;
        for e in self.entries.drain(..) {
            // An open run conceptually extends to infinity for splitting.
            let e_end = match e.end {
                TimeBound::Fixed(t) => t,
                TimeBound::Now => Instant::MAX,
            };
            if e_end < lo || e.start > hi {
                if e.start > hi && !inserted {
                    out.push(TemporalEntry {
                        start: lo,
                        end: TimeBound::Fixed(hi),
                        value: value.clone(),
                    });
                    inserted = true;
                }
                out.push(e);
                continue;
            }
            // Overlap: keep the left remainder, insert, keep right remainder.
            if e.start < lo {
                out.push(TemporalEntry {
                    start: e.start,
                    end: TimeBound::Fixed(lo.prev().expect("lo > e.start >= 0")),
                    value: e.value.clone(),
                });
            }
            if !inserted {
                out.push(TemporalEntry {
                    start: lo,
                    end: TimeBound::Fixed(hi),
                    value: value.clone(),
                });
                inserted = true;
            }
            if e_end > hi {
                out.push(TemporalEntry {
                    start: hi.next(),
                    end: e.end,
                    value: e.value,
                });
            }
        }
        if !inserted {
            out.push(TemporalEntry {
                start: lo,
                end: TimeBound::Fixed(hi),
                value,
            });
        }
        self.entries = out;
        self.coalesce();
        Ok(())
    }

    /// The value at instant `t` under the given clock — `f(t)`.
    pub fn value_at(&self, t: Instant, now: Instant) -> Option<&V> {
        let idx = self.entries.partition_point(|e| e.start <= t);
        if idx == 0 {
            return None;
        }
        let e = &self.entries[idx - 1];
        (e.end.resolve(now) >= t && (!e.end.is_now() || t <= now)).then_some(&e.value)
    }

    /// The current value — `f(now)`.
    #[inline]
    pub fn value_now(&self, now: Instant) -> Option<&V> {
        self.value_at(now, now)
    }

    /// The domain of the partial function under the given clock: the set of
    /// instants at which the value is defined. For a temporal attribute of
    /// an object this is the set of instants at which the attribute is
    /// *meaningful* (Definition 5.2).
    #[must_use]
    pub fn domain(&self, now: Instant) -> IntervalSet {
        self.entries
            .iter()
            .map(|e| e.interval(now))
            .filter(|iv| !iv.is_empty())
            .collect()
    }

    /// `true` if `t` is in the domain (the attribute is meaningful at `t`,
    /// Definition 5.2).
    #[inline]
    pub fn is_defined_at(&self, t: Instant, now: Instant) -> bool {
        self.value_at(t, now).is_some()
    }

    /// The canonical runs.
    #[inline]
    pub fn entries(&self) -> &[TemporalEntry<V>] {
        &self.entries
    }

    /// Number of canonical runs.
    #[inline]
    pub fn run_count(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the function is nowhere defined.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The resolved `⟨interval, value⟩` pairs under the given clock,
    /// skipping runs that are empty under that clock.
    pub fn resolved_pairs(&self, now: Instant) -> Vec<(Interval, &V)> {
        self.entries
            .iter()
            .filter_map(|e| {
                let iv = e.interval(now);
                (!iv.is_empty()).then_some((iv, &e.value))
            })
            .collect()
    }

    /// Restrict the partial function to the instants of `set` (fixed runs
    /// under the given clock).
    #[must_use]
    pub fn restrict(&self, set: &IntervalSet, now: Instant) -> TemporalValue<V> {
        let mut entries = Vec::new();
        for e in &self.entries {
            let run = e.interval(now);
            for &iv in set.intervals() {
                let x = run.intersect(iv);
                if let (Some(lo), Some(hi)) = (x.lo(), x.hi()) {
                    entries.push(TemporalEntry {
                        start: lo,
                        end: TimeBound::Fixed(hi),
                        value: e.value.clone(),
                    });
                }
            }
        }
        TemporalValue::from_entries(entries).expect("restriction preserves disjointness")
    }

    /// Compare two histories *as partial functions* resolved under the given
    /// clock: equal domains and pointwise-equal values.
    pub fn semantically_eq(&self, other: &TemporalValue<V>, now: Instant) -> bool {
        let a = self.resolved_pairs(now);
        let b = other.resolved_pairs(now);
        a.len() == b.len()
            && a.iter()
                .zip(b.iter())
                .all(|((ia, va), (ib, vb))| ia == ib && va == vb)
    }

    /// Map the values of the history, re-canonicalizing (a non-injective
    /// map can make adjacent runs equal).
    #[must_use]
    pub fn map<U: Clone + Eq>(&self, mut f: impl FnMut(&V) -> U) -> TemporalValue<U> {
        let mut tv = TemporalValue {
            entries: self
                .entries
                .iter()
                .map(|e| TemporalEntry {
                    start: e.start,
                    end: e.end,
                    value: f(&e.value),
                })
                .collect(),
        };
        tv.coalesce();
        tv
    }

    /// Pointwise combination of two histories — the **temporal join**:
    /// the result is defined exactly on the intersection of the two
    /// domains, holding `f(a, b)` wherever `self` holds `a` and `other`
    /// holds `b` (runs are intersected pairwise and the result is
    /// re-coalesced).
    ///
    /// This is the algebra behind queries like "salary while assigned to
    /// project P" — join the salary history with the assignment history.
    #[must_use]
    pub fn zip_with<U: Clone + Eq, W: Clone + Eq>(
        &self,
        other: &TemporalValue<U>,
        now: Instant,
        mut f: impl FnMut(&V, &U) -> W,
    ) -> TemporalValue<W> {
        let mut entries = Vec::new();
        // Two-pointer sweep over the (sorted) runs of both histories.
        let (a, b) = (self.entries(), other.entries());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let ia = a[i].interval(now);
            let ib = b[j].interval(now);
            let x = ia.intersect(ib);
            if let (Some(lo), Some(hi)) = (x.lo(), x.hi()) {
                entries.push(TemporalEntry {
                    start: lo,
                    end: TimeBound::Fixed(hi),
                    value: f(&a[i].value, &b[j].value),
                });
            }
            // Advance whichever run ends first (empty runs advance too).
            let ea = ia.hi().unwrap_or(Instant::ZERO);
            let eb = ib.hi().unwrap_or(Instant::ZERO);
            if ia.is_empty() || (!ib.is_empty() && ea <= eb) {
                i += 1;
            } else {
                j += 1;
            }
        }
        TemporalValue::from_entries(entries).expect("disjoint by construction")
    }

    /// The instants at which the value *changes* (each run start), with
    /// the value taken, under the given clock.
    pub fn changes(&self, now: Instant) -> Vec<(Instant, &V)> {
        self.entries
            .iter()
            .filter(|e| !e.interval(now).is_empty())
            .map(|e| (e.start, &e.value))
            .collect()
    }

    /// Iterate `(t, &value)` for every instant of the domain under the
    /// given clock, in increasing order of `t`.
    pub fn instants(&self, now: Instant) -> impl Iterator<Item = (Instant, &V)> + '_ {
        self.entries.iter().flat_map(move |e| {
            e.interval(now)
                .instants()
                .map(move |t| (t, &e.value))
        })
    }

    /// Merge adjacent runs holding equal values, in place; upholds the
    /// canonical form. A run after an open one (non-canonical, refused by
    /// every validating constructor) is kept as it is.
    fn coalesce(&mut self) {
        self.entries.dedup_by(|next, prev| {
            let adjacent = matches!(prev.end, TimeBound::Fixed(end) if end.next() == next.start);
            if adjacent && prev.value == next.value {
                prev.end = next.end;
                return true;
            }
            false
        });
    }
}

impl<V: fmt::Debug> fmt::Debug for TemporalValue<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, e) in self.entries.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "⟨[{},{}],{:?}⟩", e.start, e.end, e.value)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::from_ticks(lo, hi)
    }

    #[test]
    fn paper_example_3_2() {
        // {⟨[5,10],12⟩, ⟨[11,30],5⟩} ∈ [[temporal(integer)]]
        let tv = TemporalValue::from_pairs([(iv(5, 10), 12i64), (iv(11, 30), 5)]).unwrap();
        let now = Instant(100);
        assert_eq!(tv.value_at(Instant(5), now), Some(&12));
        assert_eq!(tv.value_at(Instant(10), now), Some(&12));
        assert_eq!(tv.value_at(Instant(11), now), Some(&5));
        assert_eq!(tv.value_at(Instant(30), now), Some(&5));
        assert_eq!(tv.value_at(Instant(31), now), None);
        assert_eq!(tv.value_at(Instant(4), now), None);
        assert_eq!(tv.run_count(), 2);
    }

    #[test]
    fn from_pairs_coalesces_equal_adjacent() {
        let tv = TemporalValue::from_pairs([(iv(1, 5), 7i64), (iv(6, 9), 7)]).unwrap();
        assert_eq!(tv.run_count(), 1);
        assert_eq!(tv.domain(Instant(99)), IntervalSet::from_interval(iv(1, 9)));
    }

    #[test]
    fn from_pairs_rejects_overlap_and_empty() {
        assert_eq!(
            TemporalValue::from_pairs([(iv(1, 5), 1i64), (iv(5, 9), 2)]),
            Err(HistoryError::Overlap)
        );
        assert_eq!(
            TemporalValue::from_pairs([(Interval::EMPTY, 1i64)]),
            Err(HistoryError::EmptyRun)
        );
    }

    #[test]
    fn set_from_builds_growing_history() {
        let mut tv = TemporalValue::new();
        tv.set_from(Instant(10), "a").unwrap();
        tv.set_from(Instant(20), "b").unwrap();
        tv.set_from(Instant(30), "c").unwrap();
        let now = Instant(40);
        assert_eq!(tv.value_at(Instant(10), now), Some(&"a"));
        assert_eq!(tv.value_at(Instant(19), now), Some(&"a"));
        assert_eq!(tv.value_at(Instant(20), now), Some(&"b"));
        assert_eq!(tv.value_at(Instant(29), now), Some(&"b"));
        assert_eq!(tv.value_at(Instant(35), now), Some(&"c"));
        assert_eq!(tv.value_at(Instant(9), now), None);
        assert_eq!(tv.run_count(), 3);
        assert!(tv.has_open_run());
    }

    #[test]
    fn set_from_same_value_is_noop() {
        let mut tv = TemporalValue::starting_at(Instant(10), 1i64);
        tv.set_from(Instant(20), 1).unwrap();
        assert_eq!(tv.run_count(), 1);
        assert_eq!(tv.entries()[0].start, Instant(10));
    }

    #[test]
    fn set_from_replaces_same_instant() {
        let mut tv = TemporalValue::starting_at(Instant(10), 1i64);
        tv.set_from(Instant(10), 2).unwrap();
        assert_eq!(tv.run_count(), 1);
        assert_eq!(tv.value_now(Instant(10)), Some(&2));
    }

    #[test]
    fn set_from_rejects_past() {
        let mut tv = TemporalValue::starting_at(Instant(10), 1i64);
        assert_eq!(
            tv.set_from(Instant(5), 2),
            Err(HistoryError::OverwritesPast { at: Instant(5) })
        );
        tv.close(Instant(20));
        assert_eq!(
            tv.set_from(Instant(15), 2),
            Err(HistoryError::OverwritesPast { at: Instant(15) })
        );
        // After the fixed end is fine.
        tv.set_from(Instant(21), 2).unwrap();
        assert_eq!(tv.run_count(), 2);
    }

    #[test]
    fn set_from_after_close_coalesces_equal_value() {
        let mut tv = TemporalValue::starting_at(Instant(10), 1i64);
        tv.close(Instant(20));
        tv.set_from(Instant(21), 1).unwrap();
        assert_eq!(tv.run_count(), 1);
        assert!(tv.has_open_run());
    }

    #[test]
    fn close_semantics() {
        let mut tv = TemporalValue::starting_at(Instant(10), 1i64);
        assert!(tv.close(Instant(30)));
        assert!(!tv.has_open_run());
        let now = Instant(99);
        assert_eq!(tv.value_at(Instant(30), now), Some(&1));
        assert_eq!(tv.value_at(Instant(31), now), None);
        // Closing again is a no-op.
        assert!(!tv.close(Instant(40)));
        // Closing before the open start removes the run entirely.
        let mut tv = TemporalValue::starting_at(Instant(10), 1i64);
        assert!(tv.close(Instant(5)));
        assert!(tv.is_empty());
    }

    #[test]
    fn close_before_semantics() {
        // Normal close: run [10, now] closed before 20 keeps [10, 19].
        let mut tv = TemporalValue::starting_at(Instant(10), 1i64);
        assert!(tv.close_before(Instant(20)));
        assert_eq!(tv.value_at(Instant(19), Instant(99)), Some(&1));
        assert_eq!(tv.value_at(Instant(20), Instant(99)), None);
        // A run opened at the closing instant never held: removed.
        let mut tv = TemporalValue::starting_at(Instant(20), 1i64);
        assert!(tv.close_before(Instant(20)));
        assert!(tv.is_empty());
        // Same at the beginning of time (no underflow).
        let mut tv = TemporalValue::starting_at(Instant(0), 1i64);
        assert!(tv.close_before(Instant(0)));
        assert!(tv.is_empty());
        // No open run: no-op.
        let mut tv = TemporalValue::from_pairs([(iv(1, 5), 1i64)]).unwrap();
        assert!(!tv.close_before(Instant(3)));
        assert_eq!(tv.run_count(), 1);
    }

    #[test]
    fn open_run_tracks_now() {
        let tv = TemporalValue::starting_at(Instant(10), 1i64);
        assert_eq!(tv.value_at(Instant(50), Instant(60)), Some(&1));
        assert_eq!(tv.value_at(Instant(50), Instant(40)), None);
        assert_eq!(
            tv.domain(Instant(60)),
            IntervalSet::from_interval(iv(10, 60))
        );
        assert!(tv.domain(Instant(5)).is_empty());
    }

    #[test]
    fn overwrite_splits_runs() {
        let mut tv = TemporalValue::from_pairs([(iv(1, 10), 1i64)]).unwrap();
        tv.overwrite(iv(4, 6), 2).unwrap();
        let now = Instant(99);
        assert_eq!(
            tv.resolved_pairs(now)
                .into_iter()
                .map(|(i, v)| (i, *v))
                .collect::<Vec<_>>(),
            vec![(iv(1, 3), 1), (iv(4, 6), 2), (iv(7, 10), 1)]
        );
    }

    #[test]
    fn overwrite_into_open_run() {
        let mut tv = TemporalValue::starting_at(Instant(10), 1i64);
        tv.overwrite(iv(12, 14), 2).unwrap();
        let now = Instant(20);
        assert_eq!(tv.value_at(Instant(11), now), Some(&1));
        assert_eq!(tv.value_at(Instant(13), now), Some(&2));
        assert_eq!(tv.value_at(Instant(15), now), Some(&1));
        assert!(tv.has_open_run());
    }

    #[test]
    fn overwrite_disjoint_and_empty() {
        let mut tv = TemporalValue::from_pairs([(iv(1, 3), 1i64)]).unwrap();
        tv.overwrite(iv(10, 12), 2).unwrap();
        assert_eq!(tv.run_count(), 2);
        assert_eq!(tv.overwrite(Interval::EMPTY, 3), Err(HistoryError::EmptyRun));
        // Overwrite before all runs.
        let mut tv = TemporalValue::from_pairs([(iv(10, 12), 1i64)]).unwrap();
        tv.overwrite(iv(1, 3), 2).unwrap();
        assert_eq!(tv.value_at(Instant(2), Instant(99)), Some(&2));
        assert_eq!(tv.value_at(Instant(11), Instant(99)), Some(&1));
    }

    #[test]
    fn domain_and_restrict() {
        let tv =
            TemporalValue::from_pairs([(iv(1, 5), 1i64), (iv(10, 15), 2)]).unwrap();
        let now = Instant(99);
        assert_eq!(
            tv.domain(now),
            IntervalSet::from_intervals([iv(1, 5), iv(10, 15)])
        );
        let r = tv.restrict(&IntervalSet::from_intervals([iv(3, 12)]), now);
        assert_eq!(
            r.resolved_pairs(now)
                .into_iter()
                .map(|(i, v)| (i, *v))
                .collect::<Vec<_>>(),
            vec![(iv(3, 5), 1), (iv(10, 12), 2)]
        );
        assert!(tv.is_defined_at(Instant(3), now));
        assert!(!tv.is_defined_at(Instant(7), now));
    }

    #[test]
    fn semantic_equality_resolves_now() {
        let open = TemporalValue::starting_at(Instant(10), 1i64);
        let mut fixed = TemporalValue::new();
        fixed.set_from(Instant(10), 1).unwrap();
        fixed.close(Instant(50));
        assert_ne!(open, fixed); // structurally different
        assert!(open.semantically_eq(&fixed, Instant(50))); // same function at now=50
        assert!(!open.semantically_eq(&fixed, Instant(60)));
    }

    #[test]
    fn zip_with_joins_on_domain_intersection() {
        // salary: [0,9]→100, [10,now]→150
        let mut salary = TemporalValue::new();
        salary.set_from(Instant(0), 100i64).unwrap();
        salary.set_from(Instant(10), 150).unwrap();
        // assignment: [5,14]→"P1", [20,now]→"P2"
        let mut project = TemporalValue::new();
        project.set_from(Instant(5), "P1").unwrap();
        project.close(Instant(14));
        project.set_from(Instant(20), "P2").unwrap();
        let now = Instant(30);
        let joined = salary.zip_with(&project, now, |s, p| (*s, *p));
        // Defined exactly on [5,14] ∪ [20,30].
        assert_eq!(
            joined.domain(now),
            IntervalSet::from_intervals([iv(5, 14), iv(20, 30)])
        );
        assert_eq!(joined.value_at(Instant(7), now), Some(&(100, "P1")));
        assert_eq!(joined.value_at(Instant(12), now), Some(&(150, "P1")));
        assert_eq!(joined.value_at(Instant(25), now), Some(&(150, "P2")));
        assert_eq!(joined.value_at(Instant(16), now), None);
        assert_eq!(joined.value_at(Instant(2), now), None);
    }

    #[test]
    fn zip_with_empty_and_disjoint() {
        let a = TemporalValue::starting_at(Instant(0), 1i64);
        let empty: TemporalValue<i64> = TemporalValue::new();
        let now = Instant(10);
        assert!(a.zip_with(&empty, now, |x, y| x + y).is_empty());
        let b = TemporalValue::from_pairs([(iv(20, 30), 2i64)]).unwrap();
        // a is open [0,now=10]; b starts at 20: disjoint under this clock.
        assert!(a.zip_with(&b, now, |x, y| x + y).is_empty());
        // Under a later clock they overlap.
        let joined = a.zip_with(&b, Instant(40), |x, y| x + y);
        assert_eq!(joined.value_at(Instant(25), Instant(40)), Some(&3));
    }

    #[test]
    fn zip_with_recoalesces_equal_outputs() {
        let a = TemporalValue::from_pairs([(iv(0, 4), 1i64), (iv(5, 9), 2)]).unwrap();
        let b = TemporalValue::from_pairs([(iv(0, 9), 10i64)]).unwrap();
        let now = Instant(99);
        // f ignores the left side → adjacent equal outputs merge.
        let joined = a.zip_with(&b, now, |_, y| *y);
        assert_eq!(joined.run_count(), 1);
        assert_eq!(joined.domain(now), IntervalSet::from_interval(iv(0, 9)));
    }

    #[test]
    fn changes_lists_run_starts() {
        let mut tv = TemporalValue::new();
        tv.set_from(Instant(3), "a").unwrap();
        tv.set_from(Instant(8), "b").unwrap();
        let ch = tv.changes(Instant(20));
        assert_eq!(ch, vec![(Instant(3), &"a"), (Instant(8), &"b")]);
        // A run starting after `now` is not a change yet.
        let later = TemporalValue::starting_at(Instant(50), 1i64);
        assert!(later.changes(Instant(10)).is_empty());
    }

    #[test]
    fn map_recoalesces() {
        let tv = TemporalValue::from_pairs([(iv(1, 5), 1i64), (iv(6, 9), 2)]).unwrap();
        let mapped = tv.map(|_| "x");
        assert_eq!(mapped.run_count(), 1);
    }

    #[test]
    fn instants_iteration() {
        let tv = TemporalValue::from_pairs([(iv(1, 2), 7i64), (iv(5, 6), 8)]).unwrap();
        let v: Vec<(u64, i64)> = tv
            .instants(Instant(99))
            .map(|(t, v)| (t.ticks(), *v))
            .collect();
        assert_eq!(v, vec![(1, 7), (2, 7), (5, 8), (6, 8)]);
    }

    #[test]
    fn from_entries_validates() {
        let e = |s: u64, end: TimeBound, v: i64| TemporalEntry {
            start: Instant(s),
            end,
            value: v,
        };
        assert!(TemporalValue::from_entries(vec![
            e(1, TimeBound::Fixed(Instant(5)), 1),
            e(6, TimeBound::Now, 2)
        ])
        .is_ok());
        assert_eq!(
            TemporalValue::from_entries(vec![
                e(1, TimeBound::Now, 1),
                e(6, TimeBound::Fixed(Instant(9)), 2)
            ]),
            Err(HistoryError::OpenRunNotLast)
        );
        assert_eq!(
            TemporalValue::from_entries(vec![e(5, TimeBound::Fixed(Instant(3)), 1)]),
            Err(HistoryError::EmptyRun)
        );
    }

    #[test]
    fn debug_format() {
        let tv = TemporalValue::starting_at(Instant(10), 1i64);
        assert_eq!(format!("{tv:?}"), "{⟨[10,now],1⟩}");
    }
}
