//! Scalar half-precision intrinsics — the Fig. 3b path.
//!
//! These mirror CUDA's `__hadd`, `__hmul`, `__hfma`, … : the operation is
//! performed *as if* natively in binary16 with a single rounding, and no
//! float-typed intermediate escapes. On real GPUs this path avoids the
//! h2f/f2h conversion instructions of the promotion path but achieves only
//! float-equal throughput; the simulator charges it accordingly.
//!
//! Correctness note: for `+`, `-`, `*` and FMA, computing in `f32` and
//! rounding once to binary16 *is* the correctly-rounded binary16 result
//! (11-bit significands: products take ≤22 bits, sums ≤ 24 bits with the
//! exponent range of f16, all exact in f32). Division and exp are correctly
//! rounded up to possible double rounding, which is pinned by tests.
//!
//! These scalar functions are the reference semantics. The row primitives
//! in [`crate::rows`] apply `hadd`/`hmul` to whole rows, and their F16C
//! bodies must reproduce the scalar result bit for bit; any lane whose
//! rounding is non-finite is recomputed with these functions.

use crate::f16::Half;

/// `a + b` rounded once to binary16 (CUDA `__hadd`).
#[inline(always)]
pub fn hadd(a: Half, b: Half) -> Half {
    Half::from_f32(a.to_f32() + b.to_f32())
}

/// `a - b` rounded once to binary16 (CUDA `__hsub`).
#[inline(always)]
pub fn hsub(a: Half, b: Half) -> Half {
    Half::from_f32(a.to_f32() - b.to_f32())
}

/// `a * b` rounded once to binary16 (CUDA `__hmul`).
#[inline(always)]
pub fn hmul(a: Half, b: Half) -> Half {
    Half::from_f32(a.to_f32() * b.to_f32())
}

/// `a / b` rounded to binary16 (CUDA `__hdiv`).
#[inline(always)]
pub fn hdiv(a: Half, b: Half) -> Half {
    Half::from_f32(a.to_f32() / b.to_f32())
}

/// Fused multiply-add `a * b + c` with a single final rounding
/// (CUDA `__hfma`). The f32 product of two halves is exact, so one f32 add
/// followed by one rounding matches true FMA semantics for binary16.
#[inline(always)]
pub fn hfma(a: Half, b: Half, c: Half) -> Half {
    Half::from_f32(a.to_f32() * b.to_f32() + c.to_f32())
}

/// Maximum, NaN-ignoring (CUDA `__hmax`).
#[inline(always)]
pub fn hmax(a: Half, b: Half) -> Half {
    a.max(b)
}

/// Minimum, NaN-ignoring (CUDA `__hmin`).
#[inline(always)]
pub fn hmin(a: Half, b: Half) -> Half {
    a.min(b)
}

/// Negation (sign-bit flip, exact).
#[inline(always)]
pub fn hneg(a: Half) -> Half {
    -a
}

/// Base-e exponential in half precision (CUDA `hexp`).
///
/// Input in `(-INF, 0]` provably yields output in `(0, 1]` — the shadow-API
/// contract the paper exploits for edge-softmax (§3.1.2).
#[inline(always)]
pub fn hexp(a: Half) -> Half {
    Half::from_f32(a.to_f32().exp())
}

/// Natural logarithm in half precision (CUDA `hlog`).
#[inline(always)]
pub fn hlog(a: Half) -> Half {
    Half::from_f32(a.to_f32().ln())
}

/// Square root in half precision (CUDA `hsqrt`).
#[inline(always)]
pub fn hsqrt(a: Half) -> Half {
    Half::from_f32(a.to_f32().sqrt())
}

/// Reciprocal in half precision (CUDA `hrcp`).
#[inline(always)]
pub fn hrcp(a: Half) -> Half {
    Half::from_f32(1.0 / a.to_f32())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(v: f32) -> Half {
        Half::from_f32(v)
    }

    #[test]
    fn basic_arithmetic() {
        assert_eq!(hadd(h(1.5), h(2.25)).to_f32(), 3.75);
        assert_eq!(hsub(h(1.0), h(0.5)).to_f32(), 0.5);
        assert_eq!(hmul(h(3.0), h(0.5)).to_f32(), 1.5);
        assert_eq!(hdiv(h(1.0), h(4.0)).to_f32(), 0.25);
    }

    #[test]
    fn fma_single_rounding() {
        // 2^-5 * 2^-6 + 1.0 = 1 + 2^-11: unfused would round the product
        // (exact) then the sum; both paths agree here, but the sum must tie
        // to even 1.0.
        let r = hfma(h(2f32.powi(-5)), h(2f32.powi(-6)), Half::ONE);
        assert_eq!(r, Half::ONE);
        assert_eq!(hfma(h(2.0), h(3.0), h(4.0)).to_f32(), 10.0);
    }

    #[test]
    fn intrinsics_overflow_to_inf() {
        assert!(hadd(Half::MAX, Half::MAX).is_infinite());
        assert!(hmul(h(300.0), h(300.0)).is_infinite());
        assert!(hfma(h(256.0), h(256.0), Half::ZERO).is_infinite());
    }

    #[test]
    fn exp_contract_non_positive_inputs() {
        // exp of a non-positive half never overflows: output in (0, 1].
        for bits in 0..=u16::MAX {
            let x = Half::from_bits(bits);
            if x.is_nan() || x.to_f32() > 0.0 {
                continue;
            }
            let e = hexp(x);
            assert!(e.is_finite(), "exp({x:?}) overflowed");
            assert!(e.to_f32() <= 1.0 && e.to_f32() >= 0.0);
        }
        // ... whereas positive inputs can overflow, which is AMP's fear.
        assert!(hexp(h(12.0)).is_infinite());
    }

    #[test]
    fn transcendentals() {
        assert_eq!(hexp(Half::ZERO), Half::ONE);
        assert_eq!(hlog(Half::ONE), Half::ZERO);
        assert_eq!(hsqrt(h(4.0)).to_f32(), 2.0);
        assert_eq!(hrcp(h(2.0)).to_f32(), 0.5);
        assert!(hlog(h(-1.0)).is_nan());
        assert!(hsqrt(h(-1.0)).is_nan());
    }

    #[test]
    fn min_max() {
        assert_eq!(hmax(h(2.0), h(3.0)).to_f32(), 3.0);
        assert_eq!(hmin(h(2.0), h(3.0)).to_f32(), 2.0);
        assert_eq!(hmax(Half::NEG_INFINITY, h(-5.0)).to_f32(), -5.0);
    }
}
