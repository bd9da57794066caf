//! Cell element abstraction over `f32` and `f64`.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// Floating-point precision of a stencil computation.
///
/// The AN5D paper evaluates every benchmark with both single- and
/// double-precision cell values; the precision affects the shared-memory
/// footprint (`nword`), register pressure and the memory-bandwidth roofs of
/// the performance model.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Precision {
    /// 32-bit IEEE-754 (`float` in the generated CUDA code).
    Single,
    /// 64-bit IEEE-754 (`double` in the generated CUDA code).
    Double,
}

impl Precision {
    /// Number of bytes occupied by one cell value (`nword` × 4 in the paper's
    /// notation, where `nword` counts 32-bit words).
    #[must_use]
    pub const fn bytes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }

    /// Number of 32-bit words per cell value — the paper's `nword`.
    #[must_use]
    pub const fn nword(self) -> usize {
        match self {
            Precision::Single => 1,
            Precision::Double => 2,
        }
    }

    /// The CUDA scalar type name used by the code generator.
    #[must_use]
    pub const fn cuda_type(self) -> &'static str {
        match self {
            Precision::Single => "float",
            Precision::Double => "double",
        }
    }

    /// All supported precisions, in the order the paper reports them.
    #[must_use]
    pub const fn all() -> [Precision; 2] {
        [Precision::Single, Precision::Double]
    }
}

impl Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Single => write!(f, "float"),
            Precision::Double => write!(f, "double"),
        }
    }
}

/// Trait abstracting the scalar cell type of a grid (`f32` or `f64`).
///
/// The trait is sealed by construction (only implemented here) and exposes
/// exactly the operations stencil kernels need: arithmetic, square root,
/// conversions from `f64` literals (stencil coefficients are stored as
/// `f64`), and the associated [`Precision`].
pub trait Element:
    Copy
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + Sum
    + Send
    + Sync
    + 'static
{
    /// Precision tag for this element type.
    const PRECISION: Precision;

    /// Additive identity.
    const ZERO: Self;

    /// Multiplicative identity.
    const ONE: Self;

    /// Convert a coefficient stored as `f64` into this element type.
    fn from_f64(value: f64) -> Self;

    /// Convert this element into `f64` (used by comparison helpers).
    fn into_f64(self) -> f64;

    /// Square root (used by the `gradient2d` benchmark).
    fn sqrt(self) -> Self;

    /// Absolute value.
    fn abs(self) -> Self;

    /// Fused multiply-add: `self · a + b` rounded once. Compiled with FMA
    /// enabled this is one instruction; without it, a correctly rounded
    /// library call.
    fn mul_add(self, a: Self, b: Self) -> Self;

    /// `true` if the value is finite (not NaN/Inf).
    fn is_finite(self) -> bool;
}

impl Element for f32 {
    const PRECISION: Precision = Precision::Single;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_f64(value: f64) -> Self {
        value as f32
    }

    #[inline]
    fn into_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }

    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }

    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Element for f64 {
    const PRECISION: Precision = Precision::Double;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_f64(value: f64) -> Self {
        value
    }

    #[inline]
    fn into_f64(self) -> f64 {
        self
    }

    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }

    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }

    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_bytes_and_words() {
        assert_eq!(Precision::Single.bytes(), 4);
        assert_eq!(Precision::Double.bytes(), 8);
        assert_eq!(Precision::Single.nword(), 1);
        assert_eq!(Precision::Double.nword(), 2);
    }

    #[test]
    fn precision_cuda_type_names() {
        assert_eq!(Precision::Single.cuda_type(), "float");
        assert_eq!(Precision::Double.cuda_type(), "double");
        assert_eq!(Precision::Single.to_string(), "float");
    }

    #[test]
    fn precision_ordering_and_all() {
        assert!(Precision::Single < Precision::Double);
        assert_eq!(Precision::all(), [Precision::Single, Precision::Double]);
    }

    #[test]
    fn element_constants_match_precision() {
        assert_eq!(<f32 as Element>::PRECISION, Precision::Single);
        assert_eq!(<f64 as Element>::PRECISION, Precision::Double);
        assert_eq!(<f32 as Element>::ZERO, 0.0_f32);
        assert_eq!(<f64 as Element>::ONE, 1.0_f64);
    }

    #[test]
    fn element_conversions_round_trip() {
        let x = <f32 as Element>::from_f64(1.5);
        assert_eq!(x, 1.5_f32);
        assert_eq!(x.into_f64(), 1.5_f64);
        let y = <f64 as Element>::from_f64(-2.25);
        assert_eq!(y, -2.25);
    }

    #[test]
    fn element_math_helpers() {
        assert_eq!(<f64 as Element>::sqrt(9.0), 3.0);
        assert_eq!(<f32 as Element>::abs(-4.0), 4.0);
        assert_eq!(<f64 as Element>::mul_add(2.0, 3.0, 1.0), 7.0);
        // (1 + 2⁻ᵖ)² − (1 + 2¹⁻ᵖ) is 2⁻²ᵖ exactly; the rounded square
        // loses it, so only a fused multiply-add sees it.
        let a = 1.0 + 2f64.powi(-30);
        assert_eq!(
            <f64 as Element>::mul_add(a, a, -(1.0 + 2f64.powi(-29))),
            2f64.powi(-60)
        );
        let a = 1.0 + 2f32.powi(-12);
        assert_eq!(
            <f32 as Element>::mul_add(a, a, -(1.0 + 2f32.powi(-11))),
            2f32.powi(-24)
        );
        assert!(<f64 as Element>::is_finite(1.0));
        assert!(!<f64 as Element>::is_finite(f64::NAN));
    }

    #[test]
    fn elements_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<f32>();
        assert_send_sync::<f64>();
        assert_send_sync::<Precision>();
    }
}
