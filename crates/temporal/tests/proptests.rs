//! Property-based tests for the time-domain substrate.
//!
//! These validate the algebraic laws the paper relies on implicitly:
//! interval/interval-set boolean algebra, canonicity of the coalesced
//! history representation, and the equivalence of the coalesced
//! representation with the naive per-instant one (Section 3.2).

use proptest::prelude::*;
use tchimera_temporal::{
    HistoryError, Instant, Interval, IntervalSet, PointHistory, TemporalEntry, TemporalValue,
    TimeBound,
};

const T_MAX: u64 = 200;

fn arb_interval() -> impl Strategy<Value = Interval> {
    (0..T_MAX, 0..T_MAX).prop_map(|(a, b)| Interval::from_ticks(a.min(b), a.max(b)))
}

fn arb_interval_set() -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec(arb_interval(), 0..8).prop_map(IntervalSet::from_intervals)
}

/// Reference model: a plain set of instants.
fn instants_of(s: &IntervalSet) -> std::collections::BTreeSet<u64> {
    s.instants().map(Instant::ticks).collect()
}

proptest! {
    #[test]
    fn interval_set_is_canonical(s in arb_interval_set()) {
        // Sorted, disjoint, non-adjacent.
        for w in s.intervals().windows(2) {
            let (a, b) = (w[0], w[1]);
            prop_assert!(a.hi().unwrap().ticks() + 1 < b.lo().unwrap().ticks());
        }
        // No empty members.
        for iv in s.intervals() {
            prop_assert!(!iv.is_empty());
        }
    }

    #[test]
    fn union_matches_set_model(a in arb_interval_set(), b in arb_interval_set()) {
        let u = a.union(&b);
        let model: std::collections::BTreeSet<u64> =
            instants_of(&a).union(&instants_of(&b)).cloned().collect();
        prop_assert_eq!(instants_of(&u), model);
    }

    #[test]
    fn intersection_matches_set_model(a in arb_interval_set(), b in arb_interval_set()) {
        let x = a.intersection(&b);
        let model: std::collections::BTreeSet<u64> =
            instants_of(&a).intersection(&instants_of(&b)).cloned().collect();
        prop_assert_eq!(instants_of(&x), model);
    }

    #[test]
    fn difference_matches_set_model(a in arb_interval_set(), b in arb_interval_set()) {
        let d = a.difference(&b);
        let model: std::collections::BTreeSet<u64> =
            instants_of(&a).difference(&instants_of(&b)).cloned().collect();
        prop_assert_eq!(instants_of(&d), model);
    }

    #[test]
    fn union_is_commutative_and_associative(
        a in arb_interval_set(), b in arb_interval_set(), c in arb_interval_set()
    ) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    }

    #[test]
    fn intersection_distributes_over_union(
        a in arb_interval_set(), b in arb_interval_set(), c in arb_interval_set()
    ) {
        prop_assert_eq!(
            a.intersection(&b.union(&c)),
            a.intersection(&b).union(&a.intersection(&c))
        );
    }

    #[test]
    fn subset_iff_union_absorbs(a in arb_interval_set(), b in arb_interval_set()) {
        prop_assert_eq!(a.is_subset(&b), a.union(&b) == b);
    }

    #[test]
    fn contains_matches_model(s in arb_interval_set(), t in 0..T_MAX) {
        prop_assert_eq!(s.contains(Instant(t)), instants_of(&s).contains(&t));
    }
}

/// A random growing-history script: a sequence of (advance, value) steps.
fn arb_script() -> impl Strategy<Value = Vec<(u64, i32)>> {
    prop::collection::vec((1..10u64, 0..4i32), 1..30)
}

proptest! {
    /// Replaying a growth script through `set_from` yields the same partial
    /// function as an explicit per-instant map, and the representation is
    /// canonical (maximally coalesced).
    #[test]
    fn history_matches_point_model(script in arb_script()) {
        let mut tv: TemporalValue<i32> = TemporalValue::new();
        let mut model: std::collections::BTreeMap<u64, i32> = Default::default();
        let mut t = 0u64;
        for (dt, v) in &script {
            t += dt;
            tv.set_from(Instant(t), *v).unwrap();
        }
        let now = t + 5;
        // Rebuild the model by replay.
        let mut tm = 0u64;
        let mut starts: Vec<(u64, i32)> = Vec::new();
        for (dt, v) in &script {
            tm += dt;
            starts.push((tm, *v));
        }
        for u in 0..=now {
            if let Some(&(_, v)) = starts.iter().rev().find(|&&(s, _)| s <= u) {
                model.insert(u, v);
            }
        }
        for u in 0..=now {
            prop_assert_eq!(
                tv.value_at(Instant(u), Instant(now)).copied(),
                model.get(&u).copied(),
                "mismatch at t={}", u
            );
        }
        // Canonicity: no two adjacent runs with equal values.
        for w in tv.entries().windows(2) {
            let prev_end = match w[0].end {
                tchimera_temporal::TimeBound::Fixed(e) => e,
                tchimera_temporal::TimeBound::Now => unreachable!("open run not last"),
            };
            if prev_end.next() == w[1].start {
                prop_assert_ne!(&w[0].value, &w[1].value, "uncoalesced adjacent runs");
            }
        }
    }

    /// The coalesced and naive representations denote the same function.
    #[test]
    fn coalesced_equals_naive(script in arb_script()) {
        let mut runs: Vec<(Interval, i32)> = Vec::new();
        let mut t = 0u64;
        for (dt, v) in &script {
            let start = t + 1;
            t += dt + 1;
            runs.push((Interval::from_ticks(start, t), *v));
            t += 1; // gap of one instant between runs
        }
        let mut naive = PointHistory::new();
        for (iv, v) in &runs {
            naive.append_run(*iv, *v);
        }
        let tv = TemporalValue::from_pairs(runs.clone()).unwrap();
        let now = Instant(t + 10);
        prop_assert_eq!(naive.domain(), tv.domain(now));
        for u in 0..=now.ticks() {
            prop_assert_eq!(naive.value_at(Instant(u)), tv.value_at(Instant(u), now));
        }
        // Round-trip through to_temporal is identity on the function.
        let rt = naive.to_temporal();
        prop_assert!(rt.semantically_eq(&tv, now));
    }

    /// `overwrite` agrees with a per-instant overwrite model.
    #[test]
    fn overwrite_matches_model(
        base in prop::collection::vec((0..50u64, 0..50u64, 0..3i32), 0..6),
        ow in (0..60u64, 0..60u64, 10..13i32)
    ) {
        let mut tv: TemporalValue<i32> = TemporalValue::new();
        let mut model: std::collections::BTreeMap<u64, i32> = Default::default();
        for (a, b, v) in &base {
            let iv = Interval::from_ticks(*a.min(b), *a.max(b));
            tv.overwrite(iv, *v).unwrap();
            for u in iv.instants() {
                model.insert(u.ticks(), *v);
            }
        }
        let (a, b, v) = ow;
        let iv = Interval::from_ticks(a.min(b), a.max(b));
        tv.overwrite(iv, v).unwrap();
        for u in iv.instants() {
            model.insert(u.ticks(), v);
        }
        let now = Instant(200);
        for u in 0..=70u64 {
            prop_assert_eq!(
                tv.value_at(Instant(u), now).copied(),
                model.get(&u).copied(),
                "mismatch at t={}", u
            );
        }
    }

    /// `zip_with` is defined exactly on the domain intersection and is
    /// pointwise `f` (checked against a per-instant model).
    #[test]
    fn zip_with_matches_pointwise_model(s1 in arb_script(), s2 in arb_script()) {
        let build = |script: &Vec<(u64, i32)>| {
            let mut tv: TemporalValue<i32> = TemporalValue::new();
            let mut t = 0u64;
            for (dt, v) in script {
                t += dt;
                tv.set_from(Instant(t), *v).unwrap();
            }
            // Close half of them so both open and closed shapes occur.
            if script.len() % 2 == 0 {
                tv.close(Instant(t + 2));
            }
            (tv, t)
        };
        let (a, ta) = build(&s1);
        let (b, tb) = build(&s2);
        let now = Instant(ta.max(tb) + 5);
        let joined = a.zip_with(&b, now, |x, y| x.wrapping_add(*y));
        prop_assert_eq!(joined.domain(now), a.domain(now).intersection(&b.domain(now)));
        for u in 0..=now.ticks() {
            let t = Instant(u);
            let expect = match (a.value_at(t, now), b.value_at(t, now)) {
                (Some(x), Some(y)) => Some(x.wrapping_add(*y)),
                _ => None,
            };
            prop_assert_eq!(joined.value_at(t, now).copied(), expect, "at t={}", u);
        }
    }

    /// `restrict` then `domain` equals domain-intersection.
    #[test]
    fn restrict_domain_law(script in arb_script(), s in arb_interval_set()) {
        let mut tv: TemporalValue<i32> = TemporalValue::new();
        let mut t = 0u64;
        for (dt, v) in &script {
            t += dt;
            tv.set_from(Instant(t), *v).unwrap();
        }
        let now = Instant(t + 3);
        let r = tv.restrict(&s, now);
        prop_assert_eq!(r.domain(now), tv.domain(now).intersection(&s));
        for u in s.instants() {
            prop_assert_eq!(r.value_at(u, now), tv.value_at(u, now));
        }
    }
}

/// `TemporalValue::from_entries` as it was before it learned to coalesce
/// in place: a stable sort by start, the same checks in the same order,
/// then a coalesce into a fresh vector. The oracle the current
/// constructor must match on every input, accepted or refused.
fn from_entries_oracle(
    mut entries: Vec<TemporalEntry<u8>>,
) -> Result<Vec<TemporalEntry<u8>>, HistoryError> {
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
    let mut out: Vec<TemporalEntry<u8>> = Vec::with_capacity(entries.len());
    for e in entries {
        match out.last_mut() {
            Some(prev) if prev.value == e.value => match prev.end {
                TimeBound::Fixed(end) if end.next() == e.start => prev.end = e.end,
                _ => out.push(e),
            },
            _ => out.push(e),
        }
    }
    Ok(out)
}

/// Entry lists laid out as a chain of runs, each placed against the end
/// of the one before: `gap` 0 overlaps it by one instant, 1–4 abut it,
/// 5–7 leave a hole. `shape` 0 makes an empty run (`end < start`), 1 an
/// open one — wherever it falls, so often not last — and the rest a
/// fixed run of `len + 1` instants. Values come from two, so abutting
/// equal runs are common. Unless `ordered`, the list is rotated by `turn`
/// and every other pair swapped, which leaves some inputs in order and
/// puts most out of it.
fn arb_entries() -> impl Strategy<Value = Vec<TemporalEntry<u8>>> {
    (
        prop::collection::vec((0u64..8, 0u64..4, 0u8..2, 0u8..16), 0..9),
        any::<bool>(),
        0usize..9,
    )
        .prop_map(|(runs, ordered, turn)| {
            let mut next = 1u64;
            let mut entries: Vec<TemporalEntry<u8>> = runs
                .into_iter()
                .map(|(gap, len, value, shape)| {
                    let start = Instant(match gap {
                        0 => next - 1,
                        1..=4 => next,
                        _ => next + gap - 4,
                    });
                    let end = match shape {
                        0 => TimeBound::Fixed(Instant(start.ticks().saturating_sub(1))),
                        1 => TimeBound::Now,
                        _ => TimeBound::Fixed(Instant(start.ticks() + len)),
                    };
                    next = match end {
                        TimeBound::Fixed(t) => t.ticks() + 1,
                        TimeBound::Now => start.ticks() + len + 1,
                    };
                    TemporalEntry { start, end, value }
                })
                .collect();
            if !ordered && !entries.is_empty() {
                let k = turn % entries.len();
                entries.rotate_left(k);
                for pair in entries.chunks_mut(2) {
                    pair.reverse();
                }
            }
            entries
        })
}

proptest! {
    /// The constructor that coalesces in place returns exactly what the
    /// sort → validate → reallocating coalesce returned: the same runs, or
    /// the same refusal.
    #[test]
    fn from_entries_matches_the_sorting_oracle(entries in arb_entries()) {
        let expect = from_entries_oracle(entries.clone());
        let got = TemporalValue::from_entries(entries).map(|tv| tv.entries().to_vec());
        prop_assert_eq!(got, expect);
    }
}
