//! The element-type abstraction.
//!
//! Everything numeric in this repository is generic over [`Scalar`],
//! instantiated for `f32` (the paper's primary precision — its formulas
//! use `sizeof(float)`) and `f64`.

use std::fmt::{Debug, Display};
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::native::RawTile;

/// A floating-point element type usable in GEMM kernels.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Element size in bytes.
    const BYTES: usize;

    /// `self + a * b` as a separate multiply and add: two roundings.
    /// Rust never contracts it into a fused multiply-add, so this is
    /// the unfused arithmetic of the naive oracle and the simulated
    /// strategies; the native micro-kernels use [`Scalar::fma`].
    #[inline(always)]
    fn madd(self, a: Self, b: Self) -> Self {
        self + a * b
    }

    /// `self * b + c` with a single rounding (`mul_add`) — the
    /// micro-kernels' fused multiply-add.
    fn fma(self, b: Self, c: Self) -> Self;

    /// Run one micro-kernel call on this element type: the AVX2+FMA
    /// kernel when the host has it, the portable fused kernel
    /// otherwise. Both round identically, so the result does not
    /// depend on which one runs. Callers go through the checked entry
    /// points in [`crate::native`].
    ///
    /// # Safety
    /// `t` must satisfy the [`RawTile`] pointer contract.
    // SAFETY: an `unsafe fn` declaration — callers discharge the
    // `RawTile` pointer contract documented above.
    unsafe fn run_tile(t: &RawTile<Self>);

    /// Convert from `f64` (for test data and tolerances).
    fn from_f64(v: f64) -> Self;
    /// Convert to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;

    /// SIMD lanes in a 128-bit vector register.
    fn lanes() -> usize {
        16 / Self::BYTES
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;

    #[inline(always)]
    fn fma(self, b: Self, c: Self) -> Self {
        self.mul_add(b, c)
    }

    // SAFETY: an `unsafe fn` — forwards the caller's `RawTile`
    // contract to the kernel dispatcher.
    #[inline]
    unsafe fn run_tile(t: &RawTile<Self>) {
        // SAFETY: the caller upholds the `RawTile` contract.
        unsafe { crate::native::tile_f32(t) }
    }

    fn from_f64(v: f64) -> Self {
        v as f32
    }

    fn to_f64(self) -> f64 {
        self as f64
    }

    fn abs(self) -> Self {
        f32::abs(self)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;

    #[inline(always)]
    fn fma(self, b: Self, c: Self) -> Self {
        self.mul_add(b, c)
    }

    // SAFETY: an `unsafe fn` — forwards the caller's `RawTile`
    // contract to the kernel dispatcher.
    #[inline]
    unsafe fn run_tile(t: &RawTile<Self>) {
        // SAFETY: the caller upholds the `RawTile` contract.
        unsafe { crate::native::tile_f64(t) }
    }

    fn from_f64(v: f64) -> Self {
        v
    }

    fn to_f64(self) -> f64 {
        self
    }

    fn abs(self) -> Self {
        f64::abs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_per_register() {
        assert_eq!(<f32 as Scalar>::lanes(), 4);
        assert_eq!(<f64 as Scalar>::lanes(), 2);
    }

    #[test]
    fn madd_matches_mul_add() {
        let acc: f32 = 1.5;
        assert_eq!(acc.madd(2.0, 3.0), 7.5);
        let acc64: f64 = -1.0;
        assert_eq!(acc64.madd(0.5, 4.0), 1.0);
    }

    #[test]
    fn fma_rounds_once() {
        // 1 + 2^-23 squared is 1 + 2^-22 + 2^-46: the unfused product
        // rounds the 2^-46 away before the subtraction, the fused one
        // keeps it.
        let x = 1.0f32 + f32::EPSILON;
        let c = -(1.0f32 + 2.0 * f32::EPSILON);
        assert_eq!(x.fma(x, c), f32::EPSILON * f32::EPSILON);
        assert_eq!(c.madd(x, x), 0.0);
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(f32::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(f64::from_f64(-3.25), -3.25);
    }
}
