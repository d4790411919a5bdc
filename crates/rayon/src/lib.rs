//! Offline drop-in subset of the `rayon` parallel-iterator API.
//!
//! The build environment has no cargo registry, so this crate implements
//! the slice of rayon the workspace uses — `par_iter().map(..).collect()`
//! and `for_each` — on top of `std::thread::scope`. Work is
//! distributed dynamically: worker threads pull fixed-size index chunks
//! off a shared atomic counter, which load-balances uneven per-item costs
//! (e.g. objects with long histories next to freshly created ones).
//!
//! Results are always returned in input order, so a parallel
//! `map/collect` is observationally identical to its serial counterpart.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Import surface mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParIter, ParMap};
}

/// Number of worker threads used for parallel execution. Read from the
/// machine once per process, as real rayon sizes its global pool once:
/// `available_parallelism` re-reads cgroup files on every call (≈ 29 µs
/// in a container), which a per-query caller cannot afford.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The core engine: map `f` over `items` on all available cores,
/// preserving input order in the output.
fn par_map_slice<'a, T, U, F>(items: &'a [T], f: &F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 || n < 2 {
        return items.iter().map(f).collect();
    }
    // Small chunks + an atomic cursor give dynamic load balancing without
    // unsafe output slots: each worker returns (start, results) pairs that
    // are reassembled in order afterwards.
    let chunk = (n / (threads * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let parts: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                let out: Vec<U> = items[start..end].iter().map(f).collect();
                parts.lock().expect("poisoned").push((start, out));
            });
        }
    });
    let mut parts = parts.into_inner().expect("poisoned");
    parts.sort_unstable_by_key(|p| p.0);
    let mut out = Vec::with_capacity(n);
    for (_, mut p) in parts {
        out.append(&mut p);
    }
    out
}

/// Conversion of `&self` collections into a parallel iterator
/// (rayon's `IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'a> {
    /// Element type yielded by reference.
    type Item: Sync + 'a;

    /// A parallel iterator over `&self`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A parallel iterator over a slice of items.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map every item through `f` in parallel.
    pub fn map<U, F>(self, f: F) -> ParMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        ParMap { items: self.items, f }
    }

    /// Run `f` on every item in parallel (no results).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        par_map_slice(self.items, &f);
    }
}

/// A mapped parallel iterator, ready to collect.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, U, F> ParMap<'a, T, F>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    /// Execute the parallel map and collect the results in input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        par_map_slice(self.items, &self.f).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let v: Vec<u64> = Vec::new();
        let out: Vec<u64> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let out: Vec<u64> = [7u64].par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn for_each_runs_all() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = AtomicU64::new(0);
        let v: Vec<u64> = (1..=1000).collect();
        v.par_iter().for_each(|&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 500_500);
    }
}
