//! The [`Scalar`] abstraction: the numeric element type of a [`crate::Tensor`].
//!
//! The workspace computes in one of two IEEE-754 precisions — `f64` (the
//! historical default, and the precision every determinism golden is pinned
//! to) and `f32` (the fast path: half the memory traffic, twice the SIMD
//! lanes). `Scalar` is the zero-dependency trait that lets every kernel be
//! written once and monomorphised for both.
//!
//! Conventions that keep the `f64` path bitwise-identical to the historical
//! concrete code:
//!
//! * Scalar-valued *parameters and returns* of tensor APIs stay `f64`
//!   (learning rates, tolerances, reduction results). Kernels accumulate in
//!   `T` and convert at the boundary with [`Scalar::to_f64`]; constants
//!   enter with [`Scalar::from_f64`], which is the identity for `f64`.
//! * No kernel introduces [`Scalar::mul_add`] (FMA contraction) on a path
//!   covered by a byte-determinism golden — Rust never contracts `a * b + c`
//!   implicitly, and the goldens were produced without fusing.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Runtime tag for a [`Scalar`] type — what `hap-snapshot` records in its
/// header and dtype-selection flags parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// IEEE-754 binary32 (`f32`).
    F32,
    /// IEEE-754 binary64 (`f64`).
    F64,
}

impl Dtype {
    /// Canonical lowercase name (`"f32"` / `"f64"`).
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }

    /// Parses the canonical name produced by [`Dtype::name`].
    pub fn parse(s: &str) -> Option<Dtype> {
        match s {
            "f32" => Some(Dtype::F32),
            "f64" => Some(Dtype::F64),
            _ => None,
        }
    }

    /// Storage width in bytes (4 / 8) — also the on-disk tag byte used by
    /// the snapshot format, chosen so the tag is self-describing.
    pub fn bytes(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 => 8,
        }
    }
}

impl Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An IEEE-754 floating-point element type for [`crate::Tensor`] storage.
///
/// Implemented for `f64` and `f32` only; the trait exists so kernels are
/// written once, not to admit exotic numerics. All methods forward to the
/// std intrinsics of the concrete type, so a `Scalar`-generic kernel
/// monomorphises to exactly the code the concrete-`f64` kernel compiled to.
pub trait Scalar:
    Copy
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
    + Into<f64>
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of the format.
    const EPSILON: Self;
    /// Positive infinity.
    const INFINITY: Self;
    /// Negative infinity.
    const NEG_INFINITY: Self;
    /// A quiet NaN.
    const NAN: Self;
    /// The runtime tag for this type.
    const DTYPE: Dtype;
    /// Storage width in bytes.
    const BYTES: usize;

    /// Converts from `f64`, rounding to nearest for narrower types
    /// (identity for `f64`).
    fn from_f64(x: f64) -> Self;
    /// Widens to `f64` (exact for both supported types).
    fn to_f64(self) -> f64;
    /// Fused multiply–add `self * a + b` with a single rounding. Not used
    /// on golden-pinned paths (see the module docs).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `e^self`.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// `self` raised to `e` (the exponent is kept `f64` so op metadata
    /// stores one canonical value per recorded op).
    fn powf(self, e: f64) -> Self;
    /// IEEE maximum (NaN-ignoring, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum (NaN-ignoring, like `f64::min`).
    fn min(self, other: Self) -> Self;
    /// Whether the value is neither NaN nor infinite.
    fn is_finite(self) -> bool;
    /// Whether the value is NaN.
    fn is_nan(self) -> bool;
    /// IEEE-754 `totalOrder` comparison (NaN sorts above `+∞`) — the
    /// NaN-tolerant comparator for sorts that must not panic on poisoned
    /// data.
    fn total_cmp(&self, other: &Self) -> std::cmp::Ordering;
    /// An integer in the order of [`Scalar::total_cmp`], NaNs and signed
    /// zeros included: sorts by it compare integers, not floats.
    fn total_key(self) -> i64 {
        // Sign-extend the bit pattern to 64 bits, then flip the magnitude
        // bits of negatives, as `total_cmp` does.
        let shift = 64 - 8 * Self::BYTES as u32;
        let bits = ((self.to_bits_u64() << shift) as i64) >> shift;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }
    /// Raw bit pattern, zero-extended to 64 bits — for bitwise-equality
    /// assertions and content hashing across dtypes.
    fn to_bits_u64(self) -> u64;
    /// Appends the little-endian byte encoding to `out` (snapshot format).
    fn write_le(self, out: &mut Vec<u8>);
    /// Reads a value from the first [`Scalar::BYTES`] bytes of `bytes`.
    ///
    /// # Panics
    /// Panics when `bytes` is shorter than [`Scalar::BYTES`].
    fn read_le(bytes: &[u8]) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const INFINITY: Self = f64::INFINITY;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;
    const NAN: Self = f64::NAN;
    const DTYPE: Dtype = Dtype::F64;
    const BYTES: usize = 8;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline(always)]
    fn ln(self) -> Self {
        f64::ln(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline(always)]
    fn powf(self, e: f64) -> Self {
        f64::powf(self, e)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline(always)]
    fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
        f64::total_cmp(self, other)
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const INFINITY: Self = f32::INFINITY;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;
    const NAN: Self = f32::NAN;
    const DTYPE: Dtype = Dtype::F32;
    const BYTES: usize = 4;

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline(always)]
    fn ln(self) -> Self {
        f32::ln(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f32::tanh(self)
    }
    #[inline(always)]
    fn powf(self, e: f64) -> Self {
        f32::powf(self, e as f32)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    #[inline(always)]
    fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
        f32::total_cmp(self, other)
    }
    #[inline(always)]
    fn to_bits_u64(self) -> u64 {
        self.to_bits() as u64
    }
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_names_roundtrip() {
        for d in [Dtype::F32, Dtype::F64] {
            assert_eq!(Dtype::parse(d.name()), Some(d));
            assert_eq!(d.to_string(), d.name());
        }
        assert_eq!(Dtype::parse("f16"), None);
        assert_eq!(Dtype::F32.bytes(), 4);
        assert_eq!(Dtype::F64.bytes(), 8);
    }

    #[test]
    fn f64_conversions_are_identity() {
        for x in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(f64::from_f64(x).to_bits(), x.to_bits());
            assert_eq!(x.to_f64().to_bits(), x.to_bits());
        }
        assert_eq!(f64::NAN.to_bits_u64(), f64::NAN.to_bits());
    }

    #[test]
    fn f32_conversions_round_and_widen() {
        assert_eq!(f32::from_f64(1.0e-12), 1.0e-12_f32);
        assert_eq!(1.5_f32.to_f64(), 1.5_f64);
        assert!(f32::NAN.is_nan() && !f32::INFINITY.is_finite());
    }

    fn le_roundtrip<T: Scalar>(values: &[f64]) {
        let mut buf = Vec::new();
        for &v in values {
            T::from_f64(v).write_le(&mut buf);
        }
        assert_eq!(buf.len(), values.len() * T::BYTES);
        for (i, &v) in values.iter().enumerate() {
            let got = T::read_le(&buf[i * T::BYTES..]);
            assert_eq!(got.to_bits_u64(), T::from_f64(v).to_bits_u64());
        }
    }

    #[test]
    fn le_encoding_roundtrips_both_dtypes() {
        let vals = [0.0, -0.0, 1.0, -3.75, 1.0e-30, f64::INFINITY];
        le_roundtrip::<f64>(&vals);
        le_roundtrip::<f32>(&vals);
    }

    fn total_key_orders_as_total_cmp<T: Scalar>(values: &[T]) {
        for a in values {
            for b in values {
                assert_eq!(
                    a.total_key().cmp(&b.total_key()),
                    a.total_cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn total_key_matches_total_cmp_on_every_class() {
        total_key_orders_as_total_cmp(&[
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0x7ffc_0000_0000_0000),
            f64::from_bits(0xfff8_0000_0000_0002),
            f64::from_bits(0xfff0_0000_0000_0001), // signalling, negative
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            0.0,
            -0.0,
        ]);
        total_key_orders_as_total_cmp(&[
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0x7fe0_0000),
            f32::from_bits(0xffc0_0002),
            f32::from_bits(0xff80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            1e-45,
            -1e-45,
            0.0,
            -0.0,
        ]);
    }
}
