//! The paper's representation claim (Section 3.2; EXPERIMENTS.md E4) as
//! counts, not timings: "the value of a variable of temporal type does
//! not change at each instant", so a history stored as ⟨interval, value⟩
//! runs keeps one entry per *change*, where the per-instant `(t, f(t))`
//! representation keeps one per *instant*.
//!
//! For each of E4's seven (changes, run length) rows both forms are built
//! over the same history, whose adjacent values are distinct (so no two
//! runs may coalesce), and then:
//!
//! * the coalesced `TemporalValue` stores exactly `changes` entries;
//! * the per-instant `PointHistory` stores exactly `changes × run length`;
//! * both answer every instant of the history, and the first instant past
//!   it, identically.

use tchimera_temporal::{Instant, Interval, PointHistory, TemporalValue};

/// E4's rows: (changes, run length).
const ROWS: [(usize, u64); 7] = [
    (100, 1),
    (100, 10),
    (100, 100),
    (1_000, 10),
    (1_000, 100),
    (10_000, 10),
    (10_000, 100),
];

/// The value of the `i`-th run: adjacent runs differ, runs two apart
/// may repeat — coalescing merges neighbours only.
fn value(i: usize) -> i64 {
    (i % 3) as i64
}

fn coalesced(changes: usize, run_len: u64) -> TemporalValue<i64> {
    let mut h = TemporalValue::new();
    for i in 0..changes {
        h.set_from(Instant(i as u64 * run_len), value(i)).unwrap();
    }
    h.close(Instant(changes as u64 * run_len - 1));
    h
}

fn per_instant(changes: usize, run_len: u64) -> PointHistory<i64> {
    let mut h = PointHistory::new();
    for i in 0..changes {
        let start = i as u64 * run_len;
        h.append_run(Interval::from_ticks(start, start + run_len - 1), value(i));
    }
    h
}

#[test]
fn e4_coalesced_runs_store_one_entry_per_change_and_answer_like_per_instant_pairs() {
    for (changes, run_len) in ROWS {
        let instants = changes as u64 * run_len;
        let now = Instant(instants + 1);
        let runs = coalesced(changes, run_len);
        let points = per_instant(changes, run_len);
        assert_eq!(runs.run_count(), changes, "coalesced, row ({changes}, {run_len})");
        assert_eq!(points.len() as u64, instants, "per-instant, row ({changes}, {run_len})");
        for t in (0..=instants).map(Instant) {
            assert_eq!(
                runs.value_at(t, now),
                points.value_at(t),
                "row ({changes}, {run_len}) at {t}"
            );
        }
        assert_eq!(points.value_at(Instant(instants)), None);
    }
}
