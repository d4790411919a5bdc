//! Offline drop-in subset of the `proptest` property-testing API.
//!
//! The build environment has no cargo registry, so this crate implements
//! the slice of proptest the workspace's tests use: the [`strategy::Strategy`]
//! trait with `prop_map`/`prop_filter`/`prop_recursive`/`boxed`,
//! strategies for integer ranges, tuples, `Just`, `any::<T>()`,
//! collections and regex-like string patterns, plus the `proptest!`,
//! `prop_oneof!` and `prop_assert*!` macros.
//!
//! Differences from real proptest, deliberate for an offline shim:
//!
//! * **No shrinking.** A failing case panics with the property's own
//!   message; cases are seeded deterministically from the test name and
//!   case index, so failures reproduce exactly on re-run.
//! * **Eager recursion.** `prop_recursive(depth, …)` unrolls the
//!   recursion `depth` times at construction instead of lazily.
//! * Assertions are panic-based (`prop_assert!` == `assert!`), which is
//!   equivalent under `#[test]`.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// The common import surface, mirroring `proptest::prelude`.
pub mod prelude {
    /// Module alias so `prop::collection::vec(…)` resolves.
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define property tests. Each `fn name(arg in strategy, …) { body }`
/// item becomes a test running `body` over generated inputs; an optional
/// leading `#![proptest_config(expr)]` sets the number of cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let __strat = ($($strat,)+);
            for __case in 0..u64::from(__cfg.cases) {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                let ($($arg,)+) =
                    $crate::strategy::Strategy::generate(&__strat, &mut __rng);
                $body
            }
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    (($cfg:expr)) => {};
}

/// Choose uniformly among several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Property assertion; panics (failing the test) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn counts(f: impl Fn(&mut crate::test_runner::TestRng) -> usize, n: usize) -> Vec<usize> {
        let mut rng = crate::test_runner::TestRng::for_case("counts", 0);
        let mut out = vec![0usize; n];
        for _ in 0..2000 {
            out[f(&mut rng)] += 1;
        }
        out
    }

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case("r", 1);
        for _ in 0..500 {
            let v = Strategy::generate(&(0u64..10), &mut rng);
            assert!(v < 10);
            let w = Strategy::generate(&(-50i64..50), &mut rng);
            assert!((-50..50).contains(&w));
            let x = Strategy::generate(&(0u64..=u64::MAX), &mut rng);
            let _ = x;
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let s = prop_oneof![Just(0usize), Just(1usize), Just(2usize)];
        let c = counts(|rng| Strategy::generate(&s, rng), 3);
        assert!(c.iter().all(|&k| k > 300), "skewed: {c:?}");
    }

    #[test]
    fn map_filter_vec_compose() {
        let s = crate::collection::vec((0u64..100).prop_map(|x| x * 2), 1..5)
            .prop_filter("nonempty", |v| !v.is_empty());
        let mut rng = crate::test_runner::TestRng::for_case("m", 2);
        for _ in 0..200 {
            let v = Strategy::generate(&s, &mut rng);
            assert!(!v.is_empty() && v.len() < 5);
            assert!(v.iter().all(|x| x % 2 == 0 && *x < 200));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn weight(t: &Tree) -> usize {
            match t {
                Tree::Leaf(v) => usize::from(*v),
                Tree::Node(children) => children.iter().map(weight).sum(),
            }
        }
        let s = (0u8..10).prop_map(Tree::Leaf).boxed().prop_recursive(
            3,
            24,
            4,
            |inner| crate::collection::vec(inner, 0..3).prop_map(Tree::Node),
        );
        let mut rng = crate::test_runner::TestRng::for_case("t", 3);
        let mut total = 0;
        for _ in 0..50 {
            total += weight(&Strategy::generate(&s, &mut rng));
        }
        assert!(total > 0);
    }

    #[test]
    fn string_patterns_match_shape() {
        let mut rng = crate::test_runner::TestRng::for_case("s", 4);
        for _ in 0..300 {
            let v = Strategy::generate(&"[a-f]{1,3}", &mut rng);
            assert!((1..=3).contains(&v.chars().count()), "{v:?}");
            assert!(v.chars().all(|c| ('a'..='f').contains(&c)), "{v:?}");
            let w = Strategy::generate(&"[a-zA-Z0-9 ']{0,12}", &mut rng);
            assert!(w.chars().count() <= 12);
            let dot = Strategy::generate(&".{0,200}", &mut rng);
            assert!(dot.chars().count() <= 200);
        }
    }

    #[test]
    fn any_f64_is_finite() {
        let mut rng = crate::test_runner::TestRng::for_case("f", 5);
        for _ in 0..1000 {
            let v = Strategy::generate(&any::<f64>(), &mut rng);
            assert!(v.is_finite());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: multiple args, tuples, doc comments, metas.
        #[test]
        fn macro_roundtrip(a in 0u64..50, pair in (0u8..4, "[x-z]")) {
            prop_assert!(a < 50);
            let (n, s) = pair;
            prop_assert!(n < 4);
            prop_assert_eq!(s.chars().count(), 1);
            prop_assert_ne!(a, 1000);
        }
    }
}
