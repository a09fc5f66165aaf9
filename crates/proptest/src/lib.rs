//! Offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! The crates registry is unreachable in this environment, so the
//! workspace vendors the slice of the proptest API its tests actually
//! use: `proptest!`, `prop_oneof!`, `prop_assert!`/`prop_assert_eq!`,
//! [`strategy::Strategy`] with `prop_map`/`prop_recursive`/`boxed`,
//! [`strategy::Just`], [`arbitrary::any`], [`collection::vec`],
//! [`bool::ANY`], integer-range strategies, and a small regex-subset
//! string strategy (`"[class]{m,n}"`).
//!
//! Generation is a deterministic splitmix64 stream seeded from the test
//! name and case index, so failures reproduce exactly on re-run. There
//! is no shrinking: a failing case reports its case index and message.

pub mod test_runner {
    use std::fmt;

    /// Per-test configuration (the subset the workspace sets).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
        /// Accepted for compatibility; shrinking is not implemented.
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

    /// A failed property (carried by `prop_assert!` early returns).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// A failure with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    /// Deterministic splitmix64 generator.
    #[derive(Debug, Clone)]
    pub struct Rng {
        state: u64,
    }

    impl Rng {
        /// Seeds from a test name and case index (stable across runs).
        pub fn from_name_case(name: &str, case: u64) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Rng {
                state: h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use crate::test_runner::Rng;
    use std::rc::Rc;

    /// A generator of values of one type.
    ///
    /// Object safety: `generate` is the one required method; the
    /// combinators require `Self: Sized` and are provided. The `'static`
    /// supertrait lets any strategy be type-erased into a
    /// [`BoxedStrategy`].
    pub trait Strategy: 'static {
        /// The generated type.
        type Value;

        /// Produces one value from the deterministic stream.
        fn generate(&self, rng: &mut Rng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U + 'static,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (cheaply clonable).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized,
        {
            BoxedStrategy(Rc::new(self))
        }

        /// Builds recursive values: the leaf strategy is wrapped `levels`
        /// times by `recurse` (the desired-size / branch hints are
        /// accepted for API compatibility and ignored).
        fn prop_recursive<S, F>(
            self,
            levels: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized,
            S: Strategy<Value = Self::Value>,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let mut cur = self.boxed();
            for _ in 0..levels {
                cur = recurse(cur).boxed();
            }
            cur
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone + 'static> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut Rng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U + 'static,
        U: 'static,
    {
        type Value = U;
        fn generate(&self, rng: &mut Rng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A type-erased, clonable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn ErasedStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    trait ErasedStrategy<T> {
        fn erased_generate(&self, rng: &mut Rng) -> T;
    }

    impl<S: Strategy> ErasedStrategy<S::Value> for S {
        fn erased_generate(&self, rng: &mut Rng) -> S::Value {
            self.generate(rng)
        }
    }

    impl<T: 'static> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut Rng) -> T {
            self.0.erased_generate(rng)
        }
    }

    /// Equal-weight choice between alternatives (`prop_oneof!`).
    pub struct Union<T> {
        alts: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union of the given alternatives; must be nonempty.
        pub fn new(alts: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!alts.is_empty(), "prop_oneof! needs at least one case");
            Union { alts }
        }
    }

    impl<T: 'static> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut Rng) -> T {
            let i = rng.below(self.alts.len() as u64) as usize;
            self.alts[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut Rng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut Rng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let off = (rng.next_u64() as u128) % span;
                    (lo as i128 + off as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut Rng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    /// `&'static str` is a regex-subset string strategy: a sequence of
    /// atoms (`[class]` or literal/escaped chars), each optionally
    /// quantified with `{m,n}`. Classes support ranges (`a-z`), escapes
    /// (`\n`, `\t`, `\\`), and a literal leading `-`.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut Rng) -> String {
            let atoms = parse_regex_subset(self);
            let mut out = String::new();
            for (chars, lo, hi) in &atoms {
                let n = if lo == hi {
                    *lo
                } else {
                    *lo + rng.below((*hi - *lo + 1) as u64) as usize
                };
                for _ in 0..n {
                    let i = rng.below(chars.len() as u64) as usize;
                    out.push(chars[i]);
                }
            }
            out
        }
    }

    /// Parses the supported regex subset into (alphabet, min, max) atoms.
    fn parse_regex_subset(pat: &str) -> Vec<(Vec<char>, usize, usize)> {
        let cs: Vec<char> = pat.chars().collect();
        let mut atoms = Vec::new();
        let mut i = 0;
        while i < cs.len() {
            let alphabet: Vec<char> = if cs[i] == '[' {
                let close = cs[i + 1..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| p + i + 1)
                    .unwrap_or_else(|| panic!("unclosed [ in `{pat}`"));
                let mut members = Vec::new();
                let mut j = i + 1;
                while j < close {
                    let c = match cs[j] {
                        '\\' => {
                            j += 1;
                            unescape(cs[j])
                        }
                        c => c,
                    };
                    // `a-b` range (dash not first/last in the class).
                    if j + 2 < close && cs[j + 1] == '-' && cs[j + 2] != ']' {
                        let hi = match cs[j + 2] {
                            '\\' => {
                                j += 1;
                                unescape(cs[j + 2])
                            }
                            c => c,
                        };
                        for x in c..=hi {
                            members.push(x);
                        }
                        j += 3;
                    } else {
                        members.push(c);
                        j += 1;
                    }
                }
                i = close + 1;
                members
            } else if cs[i] == '\\' {
                i += 2;
                vec![unescape(cs[i - 1])]
            } else {
                i += 1;
                vec![cs[i - 1]]
            };
            // Optional {m,n} quantifier.
            let (lo, hi) = if i < cs.len() && cs[i] == '{' {
                let close = cs[i + 1..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| p + i + 1)
                    .unwrap_or_else(|| panic!("unclosed {{ in `{pat}`"));
                let body: String = cs[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((a, b)) => (
                        a.trim().parse().expect("bad quantifier"),
                        b.trim().parse().expect("bad quantifier"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("bad quantifier");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            atoms.push((alphabet, lo, hi));
        }
        atoms
    }

    fn unescape(c: char) -> char {
        match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            c => c,
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized + 'static {
        /// Produces one arbitrary value.
        fn arbitrary(rng: &mut Rng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut Rng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut Rng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The full-range strategy for `T` (see [`any`]).
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut Rng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy producing any value of `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::Rng;

    /// Accepted sizes for [`vec()`]: a fixed count or a range of counts.
    pub trait SizeRange {
        /// Chooses a length.
        fn pick(&self, rng: &mut Rng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut Rng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut Rng) -> usize {
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut Rng) -> usize {
            self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
        }
    }

    /// Vectors of values from `element`, sized by `size`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    /// Strategy for `Vec<S::Value>` with the given size range.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange + 'static> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::Rng;

    /// Strategy for either boolean.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn generate(&self, rng: &mut Rng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Generates `true` or `false` with equal probability.
    pub const ANY: BoolAny = BoolAny;
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]`-able function running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases as u64 {
                let mut __rng =
                    $crate::test_runner::Rng::from_name_case(stringify!($name), __case);
                $(let $p = $crate::strategy::Strategy::generate(&($s), &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!(
                        "proptest `{}` failed at case {}/{}: {}",
                        stringify!($name), __case, __cfg.cases, e
                    );
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Equal-probability choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

/// Property assertion: fails the current case without panicking past the
/// runner (usable only inside `proptest!` bodies).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), __l, __r
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(*__l == *__r, $($fmt)*);
    }};
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            __l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::Rng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::from_name_case("ranges", 0);
        for _ in 0..1000 {
            let v = (10i64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let u = (0u8..3).generate(&mut rng);
            assert!(u < 3);
        }
    }

    #[test]
    fn regex_subset_strings() {
        let mut rng = Rng::from_name_case("re", 1);
        for _ in 0..200 {
            let s = "[ -~\\n\\t]{0,200}".generate(&mut rng);
            assert!(s.len() <= 200);
            assert!(s
                .chars()
                .all(|c| c == '\n' || c == '\t' || (' '..='~').contains(&c)));
            let op = "[-+*&|^]".generate(&mut rng);
            assert_eq!(op.chars().count(), 1);
            assert!("-+*&|^".contains(&op));
        }
    }

    #[test]
    fn oneof_union_and_map() {
        let mut rng = Rng::from_name_case("u", 2);
        let s = prop_oneof![
            Just("a".to_string()),
            (0i64..10).prop_map(|v| format!("{v}")),
        ];
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v == "a" || v.parse::<i64>().is_ok());
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        let leaf = prop_oneof![(0i64..5).prop_map(|v| format!("{v}"))];
        let expr = leaf.boxed().prop_recursive(3, 10, 2, |inner| {
            prop_oneof![
                inner.clone(),
                (inner.clone(), inner).prop_map(|(a, b)| format!("({a}+{b})")),
            ]
        });
        let mut rng = Rng::from_name_case("rec", 3);
        for _ in 0..50 {
            let e = expr.generate(&mut rng);
            assert!(!e.is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn macro_binds_and_asserts(a in 0i64..100, b in 0i64..100) {
            prop_assert!(a + b <= 198);
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn collections_and_any(v in crate::collection::vec(-5i64..5, 0..8), x in any::<u64>()) {
            prop_assert!(v.len() < 8);
            let _ = x;
            for e in v {
                prop_assert!((-5..5).contains(&e));
            }
        }
    }
}
