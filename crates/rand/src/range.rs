//! `gen_range` support: uniform sampling over `Range` / `RangeInclusive`
//! for the integer and float types the workspace uses.

use crate::Rng;
use std::ops::{Range, RangeInclusive};

/// Types that can be drawn uniformly from an interval.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open(rng: &mut Rng, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from `self`.
    fn sample_from(self, rng: &mut Rng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from(self, rng: &mut Rng) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from(self, rng: &mut Rng) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                let span = (hi as u64) - (lo as u64);
                lo + rng.gen_u64_below(span) as $t
            }
            #[inline]
            fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.gen_u64_below(span + 1) as $t
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                // Shift into unsigned space so the span never overflows.
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                lo.wrapping_add(rng.gen_u64_below(span) as $t)
            }
            #[inline]
            fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.gen_u64_below(span + 1) as $t)
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_half_open(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        debug_assert!(lo.is_finite() && hi.is_finite());
        // lo + u·(hi−lo) can round up to hi for u close to 1; clamp back
        // into the half-open interval.
        let x = lo + rng.gen_f64() * (hi - lo);
        if x >= hi {
            hi - (hi - lo) * f64::EPSILON
        } else {
            x
        }
    }
    #[inline]
    fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        lo + rng.gen_f64() * (hi - lo)
    }
}

impl SampleUniform for f32 {
    #[inline]
    fn sample_half_open(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        f64::sample_half_open(rng, lo as f64, hi as f64) as f32
    }
    #[inline]
    fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        f64::sample_inclusive(rng, lo as f64, hi as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use crate::Rng;

    #[test]
    fn integer_ranges_stay_in_bounds() {
        let mut rng = Rng::from_seed(1);
        for _ in 0..2_000 {
            let a: usize = rng.gen_range(0..7);
            assert!(a < 7);
            let b: i64 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&b));
            let c: i32 = rng.gen_range(-3..3);
            assert!((-3..3).contains(&c));
            let d: u8 = rng.gen_range(10..=255);
            assert!(d >= 10);
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = Rng::from_seed(2);
        for _ in 0..2_000 {
            let x: f64 = rng.gen_range(-0.5..0.5);
            assert!((-0.5..0.5).contains(&x));
            let y: f64 = rng.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&y));
            let z: f64 = rng.gen_range(2.0..=3.0);
            assert!((2.0..=3.0).contains(&z));
        }
    }

    #[test]
    fn singleton_inclusive_range_is_constant() {
        let mut rng = Rng::from_seed(3);
        for _ in 0..16 {
            assert_eq!(rng.gen_range(4..=4usize), 4);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::from_seed(1).gen_range(3..3usize);
    }

    #[test]
    fn full_width_ranges() {
        let mut rng = Rng::from_seed(4);
        let _: u64 = rng.gen_range(0..=u64::MAX);
        let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
        let _: u64 = rng.gen_range(0..u64::MAX);
    }
}
