//! Slice utilities: bulk conversion, feature padding and non-finite
//! counting.
//!
//! The bulk conversions run through the [`crate::rows`] primitives, so
//! they take the F16C path where the host has it and keep exact overflow
//! provenance either way.
//!
//! §4.1.2 of the paper: "a simple type-casting of the features tensor to
//! half2 allows us to use the half2 data type for data-loading ... hardware
//! would not allow accessing half2 values whose address is not a multiple of
//! 4 bytes". Odd feature lengths (e.g. Reddit's 41 classes) are therefore
//! *padded* ([`pad_feature_len`]) so half2/half4/half8 loads stay legal.

use crate::f16::Half;
use crate::rows;

/// Round a feature length up to a multiple of `width` — *feature padding*
/// (§4.1.2): odd class counts (Reddit's 41) are padded so half2/half4/half8
/// loads stay legal.
pub const fn pad_feature_len(len: usize, width: usize) -> usize {
    len.div_ceil(width) * width
}

/// Convert an `f32` slice to freshly allocated halves (rounding each).
pub fn f32_slice_to_half(src: &[f32]) -> Vec<Half> {
    let mut out = vec![Half::ZERO; src.len()];
    rows::to_half(src, &mut out);
    out
}

/// Convert a half slice to freshly allocated `f32`s (exact widening).
pub fn half_slice_to_f32(src: &[Half]) -> Vec<f32> {
    let mut out = vec![0f32; src.len()];
    rows::to_f32(src, &mut out);
    out
}

/// Count of non-finite (Inf or NaN) lanes in a half slice — the overflow
/// detector used by accuracy experiments.
pub fn count_non_finite(src: &[Half]) -> usize {
    src.iter().filter(|h| !h.is_finite()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(v: f32) -> Half {
        Half::from_f32(v)
    }

    #[test]
    fn feature_padding() {
        assert_eq!(pad_feature_len(41, 2), 42); // Reddit classes
        assert_eq!(pad_feature_len(41, 8), 48);
        assert_eq!(pad_feature_len(64, 8), 64);
        assert_eq!(pad_feature_len(0, 2), 0);
        assert_eq!(pad_feature_len(7, 4), 8);
    }

    #[test]
    fn bulk_conversions_round_trip() {
        let xs = [0.5f32, -1.25, 3.75, 1000.0];
        let hs = f32_slice_to_half(&xs);
        let back = half_slice_to_f32(&hs);
        assert_eq!(back, xs);
    }

    #[test]
    fn non_finite_counting() {
        let v = vec![h(1.0), Half::INFINITY, Half::NAN, h(-2.0), Half::NEG_INFINITY];
        assert_eq!(count_non_finite(&v), 3);
        assert_eq!(count_non_finite(&[]), 0);
    }
}
