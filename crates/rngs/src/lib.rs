//! # em-rngs
//!
//! In-tree seedable pseudo-random number generation for the CREW
//! reproduction. The workspace builds with zero external crates, so this
//! crate supplies the full randomness substrate the codebase needs:
//!
//! - [`rngs::StdRng`] — xoshiro256++ seeded from a `u64` via SplitMix64,
//!   the workspace-wide deterministic generator;
//! - [`Rng`] — `gen_range` / `gen_bool` over integer and float ranges;
//! - [`SeedableRng`] — `seed_from_u64`;
//! - [`seq::SliceRandom`] — `shuffle` / `choose` / `choose_multiple`.
//!
//! The module layout deliberately mirrors the `rand 0.8` paths the code
//! was written against (`rngs::StdRng`, `seq::SliceRandom`), so swapping
//! a call site is a one-token change of the crate name.
//!
//! ## Stream-stability policy
//!
//! The byte streams produced by [`rngs::StdRng`] for a given seed are a
//! **compatibility surface**: persisted test expectations, regression
//! seeds and the paper-reproduction experiment tables all depend on them.
//! Any change to the seeding path, the generator recurrence, or the
//! range-mapping in [`Rng::gen_range`]/[`seq::SliceRandom::shuffle`] is a
//! breaking change and must bump the documented stream version below.
//!
//! **Stream version 1**: SplitMix64 (Steele et al.) expands the `u64`
//! seed into the 256-bit xoshiro256++ state (Blackman & Vigna); integer
//! ranges use unbiased rejection sampling from the high bits; floats use
//! the 53-bit mantissa mapping `(x >> 11) * 2^-53`.
//!
//! ```
//! use em_rngs::rngs::StdRng;
//! use em_rngs::{Rng, SeedableRng};
//! use em_rngs::seq::SliceRandom;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let d = rng.gen_range(0..6) + rng.gen_range(1..=6);
//! assert!((1..=11).contains(&d));
//! let mut v = vec![1, 2, 3, 4];
//! v.shuffle(&mut rng);
//! assert_eq!(v.len(), 4);
//! ```

pub mod rngs;
pub mod seq;

/// Low-level source of uniformly distributed `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // 53-bit mantissa mapping: exactly representable, never returns 1.0.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Construction of a generator from a `u64` seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a range (`lo..hi` or `lo..=hi`).
    ///
    /// Panics on an empty range, matching `rand`.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0, 1]"
        );
        self.next_f64() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Ranges that can produce a uniform sample of `T`.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased uniform draw in `[0, span)` by rejection from the top of the
/// `u64` space. `span == 0` means the full 2^64 range.
pub(crate) fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    // Largest multiple of `span` that fits, minus one: accepting only
    // values at or below it removes modulo bias.
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range {:?}", self);
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_u64(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range {lo}..={hi}");
                // span may be 2^64 (full u64/i64 range): i128 holds it, and
                // `as u64` wraps it to the 0 sentinel uniform_u64 expects.
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + uniform_u64(rng, span) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end && self.start.is_finite() && self.end.is_finite(),
                    "cannot sample empty or non-finite range {:?}",
                    self
                );
                let v = self.start + rng.next_f64() as $t * (self.end - self.start);
                // Rounding can land exactly on the excluded upper bound.
                if v < self.end { v } else { self.start }
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// One SplitMix64 step (Steele, Lea & Flood 2014): advances `state` and
/// returns the mixed output. Public so downstream code (the property-test
/// harness, seed derivation in tests) can derive independent sub-seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // First outputs for seed 0 from the reference C implementation.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
        assert_eq!(splitmix64(&mut s), 0xF88B_B8A8_724C_81EC);
    }

    #[test]
    fn xoshiro_stream_is_version_1() {
        // Known-answer test pinning stream version 1 (see crate docs):
        // changing seeding or the recurrence must fail here.
        let mut rng = StdRng::seed_from_u64(12345);
        let got: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                0x8D94_8A82_DEF8_A568,
                0x3477_F953_7967_02A0,
                0x15CA_A2FC_E6DB_8D69,
                0x2CEF_8853_C20C_6DD0,
                0x43FF_3FFF_9C03_9CD9,
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(100);
        let first: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        let mut a2 = StdRng::seed_from_u64(99);
        assert_ne!(first, (0..4).map(|_| a2.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let a = rng.gen_range(0..10);
            assert!((0..10).contains(&a));
            let b = rng.gen_range(1..=4);
            assert!((1..=4).contains(&b));
            let c = rng.gen_range(-2.0..2.0);
            assert!((-2.0..2.0).contains(&c));
            let d: u8 = rng.gen_range(0..26u8);
            assert!(d < 26);
            let e = rng.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&e));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "six-sided die missed a face: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = rng.gen_range(5..5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "p=0.3 gave {hits}/10000");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn uniform_mean_is_centred() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
