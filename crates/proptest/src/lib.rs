//! Offline stand-in for the slice of the `proptest` 1.x API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so external
//! dependencies are replaced by minimal in-repo path crates (DESIGN.md,
//! "Dependency policy"). This crate keeps the workspace's property
//! tests source-compatible: `proptest!`, `prop_compose!`, `prop_oneof!`,
//! `prop_assert*!`, `Strategy`/`prop_map`, `Just`, `any`, integer and
//! float range strategies, tuple strategies, `prop::collection::vec` /
//! `btree_map`, and a tiny character-class string strategy.
//!
//! Differences from upstream, on purpose:
//!
//! * no shrinking — a failing case reports its case index and panics;
//!   every case is derived deterministically from the test's name, so
//!   failures reproduce exactly on re-run;
//! * string strategies support only `[class]{lo,hi}` patterns (the one
//!   form used in-tree), not general regexes.

#![forbid(unsafe_code)]

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A failed property-test case (produced by `prop_assert!` and
/// friends).
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result type property-test bodies evaluate to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Accepted for source compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// The deterministic generator handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// RNG for case `case` of the test named `name`: the stream depends
    /// only on these two values, so every run of the suite explores the
    /// same cases.
    #[must_use]
    pub fn for_case(name: &str, case: u64) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(
            h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// The underlying `rand` generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// A source of random values of an associated type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases this strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy built from a plain generation function (the backbone of
/// `prop_compose!`).
pub struct Generator<F>(F);

impl<F> Generator<F> {
    /// Wraps `f` as a strategy.
    pub fn new<T>(f: F) -> Self
    where
        F: Fn(&mut TestRng) -> T,
    {
        Generator(f)
    }
}

impl<T, F: Fn(&mut TestRng) -> T> Strategy for Generator<F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Uniform choice between boxed alternatives (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; `arms` must be non-empty.
    #[must_use]
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.rng().gen_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.clone())
            }
        }
    )*};
}
int_strategies!(i64, u64, i32, u32, u8, usize, f64);

macro_rules! tuple_strategies {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait ArbitraryValue {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_lossless)]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.rng().next_u64() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.rng().next_u64() & 1 == 1
    }
}

/// Marker strategy for [`ArbitraryValue`] types.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T`.
#[must_use]
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Inclusive size bounds for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

/// Character-class string strategy: `"[class]{lo,hi}"` (e.g.
/// `"[ -~\n]{0,400}"`). The single pattern form used in-tree.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, size) = parse_class_pattern(self).unwrap_or_else(|| {
            panic!("unsupported string pattern {self:?} (only [class]{{lo,hi}})")
        });
        let len = rng.rng().gen_range(size.lo..=size.hi);
        (0..len)
            .map(|_| chars[rng.rng().gen_range(0..chars.len())])
            .collect()
    }
}

fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, SizeRange)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let (class, rest) = rest.split_at(close);
    let rest = rest.strip_prefix(']')?.strip_prefix('{')?;
    let rest = rest.strip_suffix('}')?;
    let (lo, hi) = rest.split_once(',')?;
    let size = SizeRange {
        lo: lo.trim().parse().ok()?,
        hi: hi.trim().parse().ok()?,
    };
    let mut chars = Vec::new();
    let raw: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < raw.len() {
        let c = match raw[i] {
            '\\' if i + 1 < raw.len() => {
                i += 1;
                match raw[i] {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                }
            }
            other => other,
        };
        // Range `a-b` (a `-` that is neither first nor last).
        if i + 2 < raw.len() && raw[i + 1] == '-' {
            let end = raw[i + 2];
            for v in (c as u32)..=(end as u32) {
                chars.extend(char::from_u32(v));
            }
            i += 3;
        } else {
            chars.push(c);
            i += 1;
        }
    }
    if chars.is_empty() {
        return None;
    }
    Some((chars, size))
}

/// Namespaced combinators (`prop::collection::*`), mirroring upstream's
/// module layout.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeRange, Strategy, TestRng};
        use rand::Rng as _;
        use std::collections::BTreeMap;

        /// Vector of values from `elem`, with a size drawn from `size`.
        pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                elem,
                size: size.into(),
            }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            elem: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.rng().gen_range(self.size.lo..=self.size.hi);
                (0..len).map(|_| self.elem.generate(rng)).collect()
            }
        }

        /// Map with keys from `key`, values from `value`, and a target
        /// size drawn from `size` (key collisions may land short, as
        /// upstream).
        pub fn btree_map<K: Strategy, V: Strategy>(
            key: K,
            value: V,
            size: impl Into<SizeRange>,
        ) -> BTreeMapStrategy<K, V>
        where
            K::Value: Ord,
        {
            BTreeMapStrategy {
                key,
                value,
                size: size.into(),
            }
        }

        /// See [`btree_map`].
        pub struct BTreeMapStrategy<K, V> {
            key: K,
            value: V,
            size: SizeRange,
        }

        impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
        where
            K::Value: Ord,
        {
            type Value = BTreeMap<K::Value, V::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let target = rng.rng().gen_range(self.size.lo..=self.size.hi);
                let mut out = BTreeMap::new();
                for _ in 0..target.saturating_mul(4) {
                    if out.len() >= target {
                        break;
                    }
                    out.insert(self.key.generate(rng), self.value.generate(rng));
                }
                out
            }
        }
    }
}

/// Everything the in-tree tests import.
pub mod prelude {
    pub use super::prop;
    pub use super::{any, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_compose, prop_oneof, proptest};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            )));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({}:{})\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                left,
                right
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(*left == *right) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({}:{}): {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                format!($($fmt)+),
                left,
                right
            )));
        }
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Composes named sub-strategies into a derived-value strategy.
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $argty:ty),* $(,)?)
            ($($var:pat in $strat:expr),+ $(,)?)
        -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($arg: $argty),*) -> impl $crate::Strategy<Value = $ret> {
            $crate::Generator::new(move |rng: &mut $crate::TestRng| {
                $(let $var = $crate::Strategy::generate(&($strat), rng);)+
                $body
            })
        }
    };
}

/// Declares deterministic property tests over the given strategies.
#[macro_export]
macro_rules! proptest {
    (@with_config ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let full_name = concat!(module_path!(), "::", stringify!($name));
            for case in 0..u64::from(config.cases) {
                let mut rng = $crate::TestRng::for_case(full_name, case);
                $(let $p = $crate::Strategy::generate(&($s), &mut rng);)+
                let outcome = (|| -> $crate::TestCaseResult {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "property {full_name} failed at case {case}/{}:\n{e}",
                        config.cases
                    );
                }
            }
        }
    )*};
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Pick {
        A(u8),
        B,
    }

    fn arb_pick() -> impl Strategy<Value = Pick> {
        prop_oneof![(0u8..9).prop_map(Pick::A), Just(Pick::B)]
    }

    prop_compose! {
        fn arb_pair(offset: i64)(a in 0i64..10, b in 0i64..10) -> (i64, i64) {
            (a + offset, b + offset)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_and_tuples((x, y) in (1i64..5, 0.0f64..=1.0)) {
            prop_assert!((1..5).contains(&x));
            prop_assert!((0.0..=1.0).contains(&y));
        }

        #[test]
        fn oneof_hits_both_arms(picks in prop::collection::vec(arb_pick(), 32..64)) {
            prop_assert!(picks.iter().any(|p| matches!(p, Pick::A(_))));
            prop_assert!(picks.contains(&Pick::B));
        }

        #[test]
        fn composed_offsets_apply((a, b) in arb_pair(100)) {
            prop_assert!((100..110).contains(&a), "a = {a}");
            prop_assert!((100..110).contains(&b));
        }

        #[test]
        fn class_pattern_strings(s in "[a-c]{2,5}") {
            prop_assert!((2..=5).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn maps_respect_bounds(m in prop::collection::btree_map(0usize..50, any::<bool>(), 0..8)) {
            prop_assert!(m.len() < 8);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_case("x", 3);
        let mut b = TestRng::for_case("x", 3);
        let s = prop::collection::vec(0u64..1000, 5..9);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
