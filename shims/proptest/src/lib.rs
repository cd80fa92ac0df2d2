//! Minimal deterministic stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace's property tests use: the `proptest!`
//! macro with `arg in strategy` bindings, `any::<T>()`, numeric range
//! strategies, `collection::vec`, simple `"[a-z]{lo,hi}"` string patterns,
//! `ProptestConfig::with_cases` and the `prop_assert*` macros. Cases are
//! generated from a fixed seed per test, so failures reproduce exactly;
//! there is no shrinking — the failing inputs are printed instead.

use std::ops::Range;

/// Deterministic splitmix64 source backing every strategy.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0DD0_5DD0_5DD0_5DD0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of test values.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {
        $(impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        })*
    };
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

/// Strategy for any value of a type with a canonical generator.
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// `any::<T>()` — the full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Types with a canonical full-range generator.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {
        $(impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        })*
    };
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric, wide dynamic range.
        let mag = rng.next_f64() * 1e12;
        if rng.next_u64() & 1 == 1 {
            -mag
        } else {
            mag
        }
    }
}

/// String pattern strategy supporting the `[a-z]{lo,hi}` shape (a single
/// character class with a repetition count). Anything else panics loudly
/// rather than silently generating the wrong distribution.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (lo_char, hi_char, lo_len, hi_len) = parse_class_pattern(self).unwrap_or_else(|| {
            panic!("proptest shim only supports '[x-y]{{lo,hi}}' string patterns, got {self:?}")
        });
        let len = (Range {
            start: lo_len,
            end: hi_len + 1,
        })
        .generate(rng);
        (0..len)
            .map(|_| {
                let span = hi_char as u32 - lo_char as u32 + 1;
                char::from_u32(lo_char as u32 + (rng.next_u64() as u32 % span)).unwrap()
            })
            .collect()
    }
}

fn parse_class_pattern(pat: &str) -> Option<(char, char, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let (class, rest) = rest.split_once(']')?;
    let mut chars = class.chars();
    let lo = chars.next()?;
    if chars.next()? != '-' {
        return None;
    }
    let hi = chars.next()?;
    if chars.next().is_some() {
        return None;
    }
    let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
    let (a, b) = counts.split_once(',')?;
    Some((lo, hi, a.trim().parse().ok()?, b.trim().parse().ok()?))
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length selector for [`vec()`]: a fixed size or a half-open range.
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    /// Strategy yielding `Vec`s of `elem` with length drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into().0,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Per-block configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 128 }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;
     $(
        #[test]
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
     )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases as u64 {
                    // Mix the test name into the seed so sibling tests see
                    // different sequences; deterministic across runs.
                    let mut seed = 0xcbf29ce484222325u64;
                    for b in stringify!($name).bytes() {
                        seed = (seed ^ b as u64).wrapping_mul(0x100000001b3);
                    }
                    let mut rng = $crate::TestRng::new(seed ^ case);
                    $( let $arg = $crate::Strategy::generate(&$strat, &mut rng); )*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_strategies_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..200 {
            let v = (5u32..9).generate(&mut rng);
            assert!((5..9).contains(&v));
            let f = (-2.0f64..2.0).generate(&mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn string_pattern_respected() {
        let mut rng = TestRng::new(2);
        for _ in 0..100 {
            let s = "[a-z]{0,12}".generate(&mut rng);
            assert!(s.len() <= 12);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = TestRng::new(3);
        for _ in 0..100 {
            let v = collection::vec(0u64..10, 1..5).generate(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_smoke(x in 0usize..10, flips in collection::vec(any::<bool>(), 0..4)) {
            prop_assert!(x < 10);
            prop_assert_eq!(flips.len() <= 3, true);
        }
    }
}
