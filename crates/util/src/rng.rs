//! Deterministic, seedable pseudo-random number generators.
//!
//! Two generators with well-known reference algorithms:
//!
//! * [`SplitMix64`] — a tiny 64-bit state mixer (Steele, Lea & Flood,
//!   OOPSLA 2014). Used for seeding and for cheap stream splitting.
//! * [`Xoshiro256pp`] — xoshiro256++ (Blackman & Vigna, 2019), the
//!   workhorse generator. [`StdRng`] is an alias for it, so call sites
//!   written against `rand`'s `StdRng` API port with an import swap.
//!
//! Everything here is pure integer arithmetic with no global state, no
//! OS entropy, and no external crates: the same seed produces the same
//! stream on every platform and every run, which is what makes the
//! repository's figures reproducible (see `docs/BUILD.md`).
//!
//! The API mirrors the subset of `rand` the workloads use:
//! [`Rng::random`], [`Rng::random_range`], [`Rng::random_bool`], and
//! `StdRng::seed_from_u64`.

use std::ops::{Range, RangeInclusive};

/// Conversion of raw generator output into a uniformly distributed
/// value of the implementing type (the equivalent of sampling `rand`'s
/// `StandardUniform` distribution).
pub trait FromRng {
    /// Draws one uniformly distributed value from `rng`.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            #[inline]
            fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for u128 {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl FromRng for i128 {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        u128::from_rng(rng) as i128
    }
}

impl FromRng for bool {
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with the standard 53-bit mantissa
    /// construction.
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    /// Uniform in `[0, 1)` with the 24-bit mantissa construction.
    #[inline]
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// A range that can be sampled uniformly (the equivalent of `rand`'s
/// `SampleRange`), implemented for half-open and inclusive integer
/// ranges.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased integer sampling in `0..n` via Lemire's multiply-shift
/// rejection method. `n` must be nonzero.
#[inline]
fn u64_below<R: Rng + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let mut m = (rng.next_u64() as u128) * (n as u128);
    let mut lo = m as u64;
    if lo < n {
        // Threshold = 2^64 mod n; rejecting below it removes the bias.
        let t = n.wrapping_neg() % n;
        while lo < t {
            m = (rng.next_u64() as u128) * (n as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_sample_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let width = self.end.wrapping_sub(self.start) as $u as u64;
                self.start.wrapping_add(u64_below(rng, width) as $t)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let width = hi.wrapping_sub(lo) as $u as u64;
                if width == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(u64_below(rng, width + 1) as $t)
            }
        }
    )*};
}

impl_sample_range!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

/// The generator interface: a raw 64-bit source plus the derived
/// sampling helpers every workload uses.
pub trait Rng {
    /// Produces the next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// Draws a uniformly distributed value of type `T`.
    #[inline]
    fn random<T: FromRng>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p={p} out of [0, 1]");
        self.random::<f64>() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// SplitMix64 (Steele, Lea & Flood): one `u64` of state, one output per
/// additive step. Passes BigCrush; its main role here is seeding
/// [`Xoshiro256pp`] and deriving independent per-thread streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed is fine,
    /// including zero.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// `rand`-compatible constructor name; identical to [`SplitMix64::new`].
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed)
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ (Blackman & Vigna): 256 bits of state, period
/// 2²⁵⁶ − 1, the repository's general-purpose generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator by expanding `seed` through [`SplitMix64`]
    /// (the seeding procedure the xoshiro authors recommend).
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256pp { s }
    }

    /// Creates a generator from explicit state words.
    ///
    /// # Panics
    ///
    /// Panics if all four words are zero (the one forbidden state).
    #[inline]
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "all-zero xoshiro state");
        Xoshiro256pp { s }
    }
}

impl Rng for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }
}

/// The default generator for call sites that just want "a seeded RNG"
/// — an alias so code written against `rand::rngs::StdRng` ports with
/// an import swap.
pub type StdRng = Xoshiro256pp;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference output for seed 0 from the published SplitMix64
        // algorithm: first value is mix(0x9E3779B97F4A7C15).
        let mut g = SplitMix64::new(0);
        let first = g.next_u64();
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "{same}/64 collisions between distinct seeds");
    }

    #[test]
    fn range_bounds_are_respected() {
        let mut g = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = g.random_range(10..20u64);
            assert!((10..20).contains(&v));
            let w: i32 = g.random_range(-5..5);
            assert!((-5..5).contains(&w));
            let x = g.random_range(0..=3u8);
            assert!(x <= 3);
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut g = StdRng::seed_from_u64(8);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[g.random_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniformity_is_plausible() {
        let mut g = StdRng::seed_from_u64(9);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[g.random_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = StdRng::seed_from_u64(10);
        for _ in 0..10_000 {
            let u: f64 = g.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn random_bool_tracks_probability() {
        let mut g = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| g.random_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "p=0.3 gave {hits}/100000");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut g = StdRng::seed_from_u64(12);
        let _ = g.random_range(5..5u64);
    }

    #[test]
    fn full_u64_inclusive_range() {
        let mut g = StdRng::seed_from_u64(13);
        // Must not overflow or hang.
        let _ = g.random_range(0..=u64::MAX);
    }
}
