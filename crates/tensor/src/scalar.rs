//! The [`Scalar`] abstraction over `f32` and Q-format fixed point.
//!
//! Kernels that run on both the PS (float software) and the PL (Q20
//! dedicated circuit) are written once against this trait. The associated
//! [`Scalar::Acc`] type models the accumulator of a multiply–add unit: for
//! fixed point it is the double-width (Q2F) register of a DSP48 cascade, so
//! a dot product truncates exactly once — matching the hardware and the
//! [`qfixed::Mac`] unit with [`qfixed::MacPolicy::WideAccumulate`].

use qfixed::{Fix, Fix16};

/// Element type usable by the generic forward kernels.
pub trait Scalar:
    Copy + Clone + Send + Sync + PartialEq + core::fmt::Debug + Default + 'static
{
    /// Accumulator for dot products (double-width for fixed point).
    type Acc: Copy + Send;

    /// Storage bytes per value — what the BRAM packing and AXI DMA
    /// models charge for one element of this type (4 for `f32` and the
    /// 32-bit fixed formats, 2 for the 16-bit reduced-width formats).
    const BYTES: usize;

    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Lossy conversion from `f32` (quantizes for fixed point).
    fn from_f32(v: f32) -> Self;
    /// Conversion to `f32`.
    fn to_f32(self) -> f32;

    /// Addition (wrapping for fixed point, as hardware registers do).
    fn add(self, rhs: Self) -> Self;
    /// Subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Multiplication (single truncation for fixed point).
    fn mul(self, rhs: Self) -> Self;
    /// Division (hardware divider semantics for fixed point: truncating,
    /// saturating on zero divisor).
    fn div(self, rhs: Self) -> Self;
    /// Negation.
    fn neg(self) -> Self;
    /// Square root (hardware non-restoring unit for fixed point); negative
    /// inputs clamp to zero.
    fn sqrt(self) -> Self;
    /// The ReLU activation.
    fn relu(self) -> Self;
    /// Maximum.
    fn max(self, rhs: Self) -> Self;

    /// Fresh zero accumulator.
    fn acc_zero() -> Self::Acc;
    /// `acc + w·x` at accumulator precision.
    fn mac(acc: Self::Acc, w: Self, x: Self) -> Self::Acc;
    /// Inject a pre-formed value (bias, residual) into the accumulator.
    fn acc_add(acc: Self::Acc, v: Self) -> Self::Acc;
    /// Collapse the accumulator back to the storage format (the single
    /// truncation point for fixed point).
    fn acc_finish(acc: Self::Acc) -> Self;

    /// How the fixed-point conv core reads and finishes this format, or
    /// `None` (the default) for a format whose accumulator is not an
    /// integer sum.
    ///
    /// `Some` routes the 3×3 fast conv through the one offset-binary core
    /// in [`crate::conv`], which computes every output's wrapping i64
    /// `Σ w·x` over operands sign-extended to 32 bits and hands it to
    /// [`FixedPoint::finish`]. So a format may be `Some` only if its
    /// `mac` chain computes exactly that sum: true of `Fix<F>` (the sum
    /// mod 2^64 of exact i32×i32 products, which no reordering changes)
    /// and of `Fix16<F>` (whose i16×i16 sums never leave i64, so the
    /// mod-2^64 sum is the exact one its saturating `acc_finish`
    /// expects). `f32` keeps the default: its sums depend on order, and
    /// its conv runs a GEMM that keeps the reference's K order.
    const FIXED_POINT: Option<FixedPoint<Self>> = None;
}

/// The fixed-point conv core's view of a [`Scalar`]: the two conversions
/// between the format and the core's raw 32-bit words and i64 sums (see
/// [`Scalar::FIXED_POINT`]).
#[derive(Clone, Copy, Debug)]
pub struct FixedPoint<S> {
    /// The value's two's-complement bits, sign-extended to 32.
    pub bits: fn(S) -> i32,
    /// The format's `acc_finish` on the wrapping i64 `Σ w·x`.
    pub finish: fn(i64) -> S,
    /// How many low bits of a reachable sum decide `finish`: for every
    /// `Σ w·x` the format's `mac` chain can produce, `finish` returns
    /// the same for the sum and for its low `sum_bits` bits sign-extended.
    /// The conv's Winograd route recovers 62 bits, so it runs only where
    /// this is at most 62.
    pub sum_bits: u32,
}

impl Scalar for f32 {
    type Acc = f32;

    const BYTES: usize = 4;

    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn from_f32(v: f32) -> Self {
        v
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
    #[inline]
    fn neg(self) -> Self {
        -self
    }
    #[inline]
    fn sqrt(self) -> Self {
        if self <= 0.0 {
            0.0
        } else {
            self.sqrt()
        }
    }
    #[inline]
    fn relu(self) -> Self {
        if self > 0.0 {
            self
        } else {
            0.0
        }
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        f32::max(self, rhs)
    }

    #[inline]
    fn acc_zero() -> f32 {
        0.0
    }
    #[inline]
    fn mac(acc: f32, w: f32, x: f32) -> f32 {
        acc + w * x
    }
    #[inline]
    fn acc_add(acc: f32, v: f32) -> f32 {
        acc + v
    }
    #[inline]
    fn acc_finish(acc: f32) -> f32 {
        acc
    }
}

impl<const F: u32> Scalar for Fix<F> {
    /// Double-width Q(2F) register, as produced by a DSP48 cascade.
    type Acc = i64;

    const BYTES: usize = 4;

    const ZERO: Self = Fix::ZERO;
    const ONE: Self = Fix::ONE;

    #[inline]
    fn from_f32(v: f32) -> Self {
        Fix::from_f32(v)
    }
    #[inline]
    fn to_f32(self) -> f32 {
        Fix::to_f32(self)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.mul_trunc(rhs)
    }
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.div_trunc(rhs)
    }
    #[inline]
    fn neg(self) -> Self {
        -self
    }
    #[inline]
    fn sqrt(self) -> Self {
        Fix::sqrt(self)
    }
    #[inline]
    fn relu(self) -> Self {
        Fix::relu(self)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        Fix::max(self, rhs)
    }

    #[inline]
    fn acc_zero() -> i64 {
        0
    }
    #[inline]
    fn mac(acc: i64, w: Self, x: Self) -> i64 {
        w.mac_wide(x, acc)
    }
    #[inline]
    fn acc_add(acc: i64, v: Self) -> i64 {
        acc.wrapping_add((v.to_bits() as i64) << F)
    }
    #[inline]
    fn acc_finish(acc: i64) -> Self {
        Fix::from_bits((acc >> F) as i32)
    }

    const FIXED_POINT: Option<FixedPoint<Self>> = Some(FixedPoint {
        bits: Fix::to_bits,
        finish: Self::acc_finish,
        // `acc_finish` reads bits F..F+31.
        sum_bits: F + 32,
    });
}

impl<const F: u32> Scalar for Fix16<F> {
    /// Wide Q(2F) accumulator. Even a 16-bit datapath accumulates in the
    /// DSP slice's wide register (48-bit on DSP48E1) — a 32-bit
    /// accumulator would overflow after ~100 products; i64 models the
    /// hardware faithfully.
    type Acc = i64;

    const BYTES: usize = 2;

    const ZERO: Self = Fix16::ZERO;
    const ONE: Self = Fix16::ONE;

    #[inline]
    fn from_f32(v: f32) -> Self {
        Fix16::from_f32(v)
    }
    #[inline]
    fn to_f32(self) -> f32 {
        Fix16::to_f32(self)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.mul_trunc(rhs)
    }
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.div_trunc(rhs)
    }
    #[inline]
    fn neg(self) -> Self {
        -self
    }
    #[inline]
    fn sqrt(self) -> Self {
        Fix16::sqrt(self)
    }
    #[inline]
    fn relu(self) -> Self {
        Fix16::relu(self)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        Fix16::max(self, rhs)
    }

    #[inline]
    fn acc_zero() -> i64 {
        0
    }
    #[inline]
    fn mac(acc: i64, w: Self, x: Self) -> i64 {
        acc.wrapping_add((w.to_bits() as i64) * (x.to_bits() as i64))
    }
    #[inline]
    fn acc_add(acc: i64, v: Self) -> i64 {
        acc.wrapping_add((v.to_bits() as i64) << F)
    }
    #[inline]
    fn acc_finish(acc: i64) -> Self {
        // Saturate at write-back: the DSP's wide value is clamped into
        // the 16-bit storage format, as hardware write-back logic does.
        let v = acc >> F;
        Fix16::from_bits(v.clamp(i16::MIN as i64, i16::MAX as i64) as i16)
    }

    const FIXED_POINT: Option<FixedPoint<Self>> = Some(FixedPoint {
        bits: |v| i32::from(v.to_bits()),
        finish: Self::acc_finish,
        // Every sum is exact and below 2^61 in magnitude (fewer than 2^31
        // products, each at most 2^30), so it sign-extends from bit 61.
        sum_bits: 62,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfixed::Q20;

    fn generic_dot<S: Scalar>(w: &[f32], x: &[f32]) -> f32 {
        let mut acc = S::acc_zero();
        for (a, b) in w.iter().zip(x) {
            acc = S::mac(acc, S::from_f32(*a), S::from_f32(*b));
        }
        S::acc_finish(acc).to_f32()
    }

    #[test]
    fn dot_agrees_between_f32_and_q20_on_exact_values() {
        let w = [0.5, -1.25, 2.0, 0.0625];
        let x = [4.0, 0.5, -0.25, 8.0];
        assert_eq!(generic_dot::<f32>(&w, &x), generic_dot::<Q20>(&w, &x));
    }

    #[test]
    fn q20_acc_truncates_once() {
        // 3 products, each inexact by < 1 LSB at Q40, truncated once:
        // total error under 1 LSB of Q20.
        let w = [0.1, 0.2, 0.3];
        let x = [0.7, 0.8, 0.9];
        let exact: f32 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
        let got = generic_dot::<Q20>(&w, &x);
        assert!((got - exact).abs() < 2.0 * Q20::RESOLUTION as f32);
    }

    #[test]
    fn f32_scalar_ops() {
        assert_eq!(Scalar::relu(-1.0f32), 0.0);
        assert_eq!(Scalar::sqrt(4.0f32), 2.0);
        assert_eq!(Scalar::sqrt(-4.0f32), 0.0);
        assert_eq!(Scalar::max(1.0f32, 2.0), 2.0);
        assert_eq!(Scalar::div(1.0f32, 2.0), 0.5);
    }

    #[test]
    fn fixed_scalar_matches_qfixed() {
        let a = Q20::from_f64(1.5);
        let b = Q20::from_f64(-2.0);
        assert_eq!(Scalar::mul(a, b), a.mul_trunc(b));
        assert_eq!(Scalar::add(a, b), a.wrapping_add(b));
        assert_eq!(Scalar::relu(b), Q20::ZERO);
    }

    #[test]
    fn fix16_dot_tracks_f32() {
        use qfixed::Fix16;
        let w = [0.5, -1.25, 2.0];
        let x = [4.0, 0.5, -0.25];
        let f = generic_dot::<f32>(&w, &x);
        let q = generic_dot::<Fix16<8>>(&w, &x);
        assert!((f - q).abs() < 0.01, "{f} vs {q}");
    }

    #[test]
    fn acc_add_injects_residual() {
        let mut acc = <Q20 as Scalar>::acc_zero();
        acc = <Q20 as Scalar>::mac(acc, Q20::from_f64(2.0), Q20::from_f64(3.0));
        acc = <Q20 as Scalar>::acc_add(acc, Q20::from_f64(0.5));
        assert_eq!(<Q20 as Scalar>::acc_finish(acc).to_f64(), 6.5);
    }
}
