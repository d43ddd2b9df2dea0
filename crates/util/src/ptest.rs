//! `proptest_lite` — a minimal property-testing harness.
//!
//! A property is a function from generated inputs to a pass/fail
//! verdict (failure = panic, so plain `assert!` works). The runner
//! executes it over many cases, each driven by a seed derived
//! deterministically from the test name and case index, so a failure
//! is reproducible by seed alone:
//!
//! * **Seeded generation** — every case seeds its own [`StdRng`];
//!   nothing reads OS entropy, so CI and laptop agree.
//! * **Shrinking by halving** — generators take a *size* in
//!   `0..=`[`MAX_SIZE`] that scales collection lengths and numeric
//!   ranges; on failure the runner retries the same seed at halved
//!   sizes and reports the smallest size that still fails.
//! * **Failure-seed reporting** — the panic message names the seed and
//!   size, and setting `HCF_PTEST_SEED` (with optional
//!   `HCF_PTEST_SIZE`) reruns exactly that case. `HCF_PTEST_CASES`
//!   overrides the case count globally.
//!
//! The [`proptest_lite!`](crate::proptest_lite) macro wires a property
//! into `#[test]`; see its docs for the syntax.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::rng::{Rng, SplitMix64, StdRng};

/// The size at which generators produce their full configured ranges;
/// shrinking halves downward from here.
pub const MAX_SIZE: u32 = 100;

/// Default number of cases per property (override per-property with
/// `cases = N;` in the macro, or globally with `HCF_PTEST_CASES`).
pub const DEFAULT_CASES: u32 = 256;

/// The boxed generator function inside a [`Gen`]: a pure function of the
/// case RNG and the current shrink size.
type GenFn<T> = Rc<dyn Fn(&mut StdRng, u32) -> T>;

/// A generator of test inputs: a pure function of the case RNG and the
/// current shrink size.
pub struct Gen<T> {
    f: GenFn<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen { f: self.f.clone() }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a raw generation function.
    pub fn new(f: impl Fn(&mut StdRng, u32) -> T + 'static) -> Self {
        Gen { f: Rc::new(f) }
    }

    /// Produces one value at the given shrink size.
    pub fn generate(&self, rng: &mut StdRng, size: u32) -> T {
        (self.f)(rng, size)
    }

    /// Transforms generated values (the analogue of `prop_map`).
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::new(move |rng, size| f(self.generate(rng, size)))
    }
}

/// Scales `width` by `size / MAX_SIZE`, never below 1.
fn scaled(width: u64, size: u32) -> u64 {
    let w = (width as u128 * size as u128 / MAX_SIZE as u128) as u64;
    w.max(1)
}

/// A constant generator (the analogue of `Just`).
pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::new(move |_, _| value.clone())
}

/// Uniform `bool`.
pub fn any_bool() -> Gen<bool> {
    Gen::new(|rng, _| rng.random())
}

/// Uniform `u64` over the full domain (magnitude is not shrunk; only
/// structure around it is).
pub fn any_u64() -> Gen<u64> {
    Gen::new(|rng, _| rng.random())
}

macro_rules! int_gen {
    ($($fname:ident, $t:ty);* $(;)?) => {$(
        /// Uniform integer in `range`; shrinking narrows the range
        /// toward its low end.
        pub fn $fname(range: std::ops::Range<$t>) -> Gen<$t> {
            assert!(range.start < range.end, "empty generator range");
            Gen::new(move |rng, size| {
                let width = scaled((range.end - range.start) as u64, size);
                range.start + rng.random_range(0..width) as $t
            })
        }
    )*};
}

int_gen! {
    u8s, u8;
    u32s, u32;
    u64s, u64;
    usizes, usize;
}

/// A `Vec` of values from `element`, length in `len`; shrinking
/// shortens toward `len.start` (never below it) and shrinks elements.
pub fn vec_of<T: 'static>(element: Gen<T>, len: std::ops::Range<usize>) -> Gen<Vec<T>> {
    assert!(len.start < len.end, "empty generator range");
    Gen::new(move |rng, size| {
        let span = scaled((len.end - len.start) as u64, size);
        let n = len.start + rng.random_range(0..span) as usize;
        (0..n).map(|_| element.generate(rng, size)).collect()
    })
}

/// A `BTreeSet` built from up to a `len`-range number of draws of
/// `element` (duplicates collapse, as with proptest's set strategies).
pub fn btree_set_of<T: Ord + 'static>(
    element: Gen<T>,
    len: std::ops::Range<usize>,
) -> Gen<std::collections::BTreeSet<T>> {
    vec_of(element, len).map(|v| v.into_iter().collect())
}

/// `Some(value)` with probability 3/4, `None` otherwise.
pub fn option_of<T: 'static>(element: Gen<T>) -> Gen<Option<T>> {
    Gen::new(move |rng, size| {
        if rng.random_range(0..4u32) == 0 {
            None
        } else {
            Some(element.generate(rng, size))
        }
    })
}

/// Picks one of `choices` uniformly per case (the analogue of
/// `prop_oneof`).
///
/// # Panics
///
/// Panics if `choices` is empty.
pub fn one_of<T: 'static>(choices: Vec<Gen<T>>) -> Gen<T> {
    assert!(!choices.is_empty(), "one_of needs at least one generator");
    Gen::new(move |rng, size| {
        let i = rng.random_range(0..choices.len());
        choices[i].generate(rng, size)
    })
}

/// Pairs two generators.
pub fn tuple2<A: 'static, B: 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    Gen::new(move |rng, size| (a.generate(rng, size), b.generate(rng, size)))
}

/// Triples three generators.
pub fn tuple3<A: 'static, B: 'static, C: 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
) -> Gen<(A, B, C)> {
    Gen::new(move |rng, size| {
        (
            a.generate(rng, size),
            b.generate(rng, size),
            c.generate(rng, size),
        )
    })
}

/// Zips five generators (the policy strategies need this arity).
pub fn tuple5<A: 'static, B: 'static, C: 'static, D: 'static, E: 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
    d: Gen<D>,
    e: Gen<E>,
) -> Gen<(A, B, C, D, E)> {
    Gen::new(move |rng, size| {
        (
            a.generate(rng, size),
            b.generate(rng, size),
            c.generate(rng, size),
            d.generate(rng, size),
            e.generate(rng, size),
        )
    })
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one case; `Some(panic message)` on failure.
fn run_case<F: Fn(&mut StdRng, u32)>(prop: &F, seed: u64, size: u32) -> Option<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    catch_unwind(AssertUnwindSafe(|| prop(&mut rng, size)))
        .err()
        .map(panic_message)
}

/// Executes `prop` over `cases` seeded cases, shrinking on failure.
/// Prefer the [`proptest_lite!`](crate::proptest_lite) macro, which
/// generates the `#[test]` wrapper calling this.
///
/// # Panics
///
/// Panics (failing the test) if any case fails, with the failing seed,
/// the smallest failing size found by halving, and the reproduction
/// environment in the message.
pub fn run<F: Fn(&mut StdRng, u32)>(name: &str, cases: u32, prop: F) {
    // Forced reproduction of one exact case.
    if let Some(seed) = std::env::var("HCF_PTEST_SEED")
        .ok()
        .and_then(|s| parse_u64(&s))
    {
        let size = std::env::var("HCF_PTEST_SIZE")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(MAX_SIZE);
        if let Some(msg) = run_case(&prop, seed, size) {
            panic!("proptest_lite: '{name}' failed at forced seed=0x{seed:x} size={size}: {msg}");
        }
        return;
    }

    let cases = std::env::var("HCF_PTEST_CASES")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(cases);

    // Per-test base seed: FNV-1a over the name, so distinct properties
    // explore distinct (but fixed) seed sequences.
    let mut base: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        base ^= b as u64;
        base = base.wrapping_mul(0x100_0000_01B3);
    }

    for case in 0..cases {
        let seed = SplitMix64::new(base.wrapping_add(case as u64)).next_u64();
        let Some(msg) = run_case(&prop, seed, MAX_SIZE) else {
            continue;
        };

        // Shrink: halve the size while the same seed still fails.
        let (mut best_size, mut best_msg) = (MAX_SIZE, msg);
        let mut size = MAX_SIZE / 2;
        while size > 0 {
            match run_case(&prop, seed, size) {
                Some(m) => {
                    best_size = size;
                    best_msg = m;
                    size /= 2;
                }
                None => break,
            }
        }

        panic!(
            "proptest_lite: property '{name}' failed (case {case}/{cases})\n  \
             seed = 0x{seed:x}, smallest failing size = {best_size}\n  \
             failure: {best_msg}\n  \
             rerun exactly: HCF_PTEST_SEED=0x{seed:x} HCF_PTEST_SIZE={best_size} \
             cargo test {name}"
        );
    }
}

/// Declares property tests.
///
/// ```
/// use hcf_util::{proptest_lite, prop_assert, prop_assert_eq};
/// use hcf_util::ptest::{u64s, vec_of};
///
/// proptest_lite! {
///     cases = 64;
///
///     fn sum_is_monotone(xs in vec_of(u64s(0..1000), 1..50)) {
///         let total: u64 = xs.iter().sum();
///         prop_assert!(total >= *xs.iter().max().unwrap());
///         prop_assert_eq!(xs.len() >= 1, true);
///     }
/// }
/// ```
///
/// Each `fn name(arg in GEN, ...) { body }` item becomes a `#[test]`
/// running the body over seeded cases (`cases = N;` at the top of the
/// block overrides [`ptest::DEFAULT_CASES`](crate::ptest::DEFAULT_CASES)).
/// Failures inside the body are ordinary panics, so `assert!` /
/// `prop_assert!` both work.
#[macro_export]
macro_rules! proptest_lite {
    (cases = $cases:expr; $($rest:tt)*) => {
        $crate::proptest_lite!(@items $cases; $($rest)*);
    };
    (@items $cases:expr; $(
        $(#[doc = $doc:expr])*
        fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[doc = $doc])*
        #[test]
        fn $name() {
            $crate::ptest::run(
                concat!(module_path!(), "::", stringify!($name)),
                $cases,
                |__rng, __size| {
                    $(let $arg = ($gen).generate(__rng, __size);)+
                    $body
                },
            );
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest_lite!(@items $crate::ptest::DEFAULT_CASES; $($rest)*);
    };
}

/// Property assertion; identical to `assert!` (failure panics, which
/// the runner catches, shrinks, and reports with its seed).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Property equality assertion; identical to `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Property inequality assertion; identical to `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        run("ptest::passing", 64, |rng, size| {
            let v = vec_of(u64s(0..100), 1..20).generate(rng, size);
            assert!(!v.is_empty());
            assert!(v.iter().all(|&x| x < 100));
        });
    }

    #[test]
    fn sizes_scale_collections() {
        let g = vec_of(u64s(0..1000), 1..100);
        let mut rng = StdRng::seed_from_u64(1);
        let big: usize = (0..50).map(|_| g.generate(&mut rng, MAX_SIZE).len()).sum();
        let small: usize = (0..50).map(|_| g.generate(&mut rng, 2).len()).sum();
        assert!(
            small < big / 4,
            "shrunk sizes not smaller: {small} vs {big}"
        );
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let caught = std::panic::catch_unwind(|| {
            run("ptest::falsifiable", 64, |rng, size| {
                let v = vec_of(u64s(0..100), 1..80).generate(rng, size);
                assert!(v.len() < 3, "vector too long: {}", v.len());
            });
        });
        let msg = panic_message(caught.expect_err("property must fail"));
        assert!(msg.contains("seed = 0x"), "no seed in: {msg}");
        assert!(msg.contains("smallest failing size"), "no size in: {msg}");
        assert!(msg.contains("HCF_PTEST_SEED"), "no repro line in: {msg}");
    }

    #[test]
    fn one_of_picks_every_branch() {
        let g = one_of(vec![just(1u32), just(2), just(3)]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[g.generate(&mut rng, MAX_SIZE) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn option_of_produces_both() {
        let g = option_of(u64s(0..10));
        let mut rng = StdRng::seed_from_u64(6);
        let nones = (0..400)
            .filter(|_| g.generate(&mut rng, MAX_SIZE).is_none())
            .count();
        assert!(nones > 40 && nones < 200, "odd None rate: {nones}/400");
    }

    proptest_lite! {
        cases = 32;

        fn macro_generated_test_runs(x in u64s(5..50), flip in any_bool()) {
            prop_assert!((5..50).contains(&x));
            prop_assert!(u64::from(flip) <= 1);
        }
    }
}
