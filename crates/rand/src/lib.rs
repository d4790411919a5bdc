//! Offline drop-in subset of the `rand` crate.
//!
//! The build environment has no access to a cargo registry, so this
//! workspace ships a tiny, deterministic implementation of the slice of
//! the `rand 0.8` API the repository actually uses: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`] and [`Rng::gen_range`] over integer
//! ranges. The generator core is splitmix64 — statistically strong
//! enough for workload generation and property testing, and fully
//! reproducible from a `u64` seed.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level entropy source: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// An RNG constructible from a small seed.
pub trait SeedableRng: Sized {
    /// Build the generator from a `u64` seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample uniformly from `range` (half-open or inclusive integer
    /// ranges). Panics on an empty range, like the real `rand`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Sample a `bool` that is `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

impl<T: RngCore> Rng for T {}

/// A range that knows how to sample itself uniformly.
pub trait SampleRange<T> {
    /// Draw one uniform sample using `rng` as the entropy source.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Concrete generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard deterministic RNG: splitmix64 over a 64-bit state.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1000), b.gen_range(0u64..1000));
        }
    }

    #[test]
    fn ranges_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(500..5000);
            assert!((500..5000).contains(&v));
            let w = r.gen_range(0u64..=10);
            assert!(w <= 10);
            let s = r.gen_range(-50i64..50);
            assert!((-50..50).contains(&s));
        }
        // Extreme span must not overflow.
        let _ = r.gen_range(0u64..u64::MAX);
        let _ = r.gen_range(0u64..=u64::MAX);
    }

    #[test]
    fn rough_uniformity() {
        let mut r = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[r.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed bucket: {counts:?}");
        }
    }
}
