//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this in-tree crate
//! implements the API subset the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header),
//! * [`Strategy`] with `prop_map` / `prop_flat_map`, implemented for
//!   numeric ranges, tuples, and [`Just`],
//! * [`collection::vec`] and [`collection::btree_set`],
//! * [`bool::ANY`],
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`], and
//!   [`prop_assume!`].
//!
//! Unlike real proptest there is **no shrinking**: a failing case reports
//! its deterministic case seed so it can be replayed by re-running the
//! test (generation is seeded from the test name and case index, so
//! failures are stable across runs and machines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;

// ---------------------------------------------------------------- runner --

/// Runner configuration. Only the case count is configurable.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed; the case is skipped, not failed.
    Reject,
    /// An assertion failed with this message.
    Fail(String),
}

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// Outcome of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// The deterministic generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds a generator (SplitMix64 stream).
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling domain");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drives `f` until `config.cases` cases pass. Rejected cases
/// (`prop_assume!`) are retried with fresh inputs, bounded by a global
/// reject budget. Panics on the first failing case, reporting its seed.
pub fn run_cases<F>(config: ProptestConfig, name: &str, mut f: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    let base = fnv1a(name.as_bytes());
    let mut passed = 0u32;
    let mut attempt = 0u64;
    let max_attempts = config.cases as u64 * 16 + 1024;
    while passed < config.cases {
        assert!(
            attempt < max_attempts,
            "{name}: gave up after {attempt} attempts with only {passed}/{} passes \
             (too many prop_assume! rejections)",
            config.cases
        );
        let seed = base ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::new(seed);
        attempt += 1;
        match f(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("{name}: case {passed} (seed {seed:#x}) failed: {msg}")
            }
        }
    }
}

// ------------------------------------------------------------- strategy --

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, i64, i32);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + (hi - lo) * rng.next_f64()
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Generates `true`/`false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The canonical boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

// ----------------------------------------------------------- collections --

/// Collection strategies.
pub mod collection {
    use super::{BTreeSet, Strategy, TestRng};

    /// A count or range of counts for collection sizes.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            if self.hi <= self.lo + 1 {
                self.lo
            } else {
                self.lo + rng.below((self.hi - self.lo) as u64) as usize
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Generates `Vec`s of values from `element`, with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates `BTreeSet`s from `element`, attempting a size drawn from
    /// `size` (duplicates collapse, as in real proptest).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------- macros --

/// Defines property tests. Mirrors proptest's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop(x in 0usize..10, (a, b) in my_strategy()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(config, stringify!($name), |__rng| {
                    $(let $pat = $crate::Strategy::generate(&($strat), __rng);)+
                    let __result: $crate::TestCaseResult = (|| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    __result
                });
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => $crate::prop_assert!(
                l == r,
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            ),
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => $crate::prop_assert!(
                l == r,
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            ),
        }
    };
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => $crate::prop_assert!(
                l != r,
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            ),
        }
    };
}

/// Skips (rejects) the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// The usual glob import for tests.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy, TestCaseError, TestCaseResult,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, usize)> {
        (0usize..10).prop_flat_map(|a| (Just(a), a..a + 5))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3usize..17, y in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn flat_map_respects_dependency((a, b) in pair()) {
            prop_assert!(b >= a && b < a + 5, "a={a} b={b}");
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0usize..5, 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn btree_set_within_universe(s in crate::collection::btree_set(0usize..50, 0..20)) {
            prop_assert!(s.len() < 20);
            prop_assert!(s.iter().all(|&x| x < 50));
        }

        #[test]
        fn assume_rejects_odd(n in 0usize..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn bool_any_generates(b in crate::bool::ANY) {
            prop_assert!((b as u8) <= 1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = crate::collection::vec(0usize..1000, 0..50);
        let a: Vec<Vec<usize>> = (0..10)
            .map(|i| strat.generate(&mut crate::TestRng::new(i)))
            .collect();
        let b: Vec<Vec<usize>> = (0..10)
            .map(|i| strat.generate(&mut crate::TestRng::new(i)))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_property_panics() {
        crate::run_cases(ProptestConfig::with_cases(8), "always_fails", |_rng| {
            Err(TestCaseError::fail("nope".into()))
        });
    }

    #[test]
    #[should_panic(expected = "prop_assume")]
    fn unsatisfiable_assume_gives_up() {
        crate::run_cases(ProptestConfig::with_cases(8), "always_rejects", |_rng| {
            Err(TestCaseError::Reject)
        });
    }
}
