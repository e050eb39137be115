//! Row primitives: the lanewise half-precision loops every kernel and
//! tensor op runs, each with a scalar body and an x86 F16C body.
//!
//! | primitive       | lanewise result                      | roundings |
//! |-----------------|--------------------------------------|-----------|
//! | [`to_half`]     | `dst ← round(src)`                   | 1         |
//! | [`to_f32`]      | `dst ← widen(src)` (exact)           | 0         |
//! | [`axpy`]        | `acc ← acc ⊕ (w ⊗ x)`                | 2         |
//! | [`axpy_scaled`] | `acc ← acc ⊕ ((w ⊗ x) ⊗ s)`          | 3         |
//! | [`scale`]       | `v ← v ⊗ s`                          | 1         |
//! | [`add`]         | `acc ← acc ⊕ x`                      | 1         |
//! | [`scale_add`]   | `dst ← (a ⊗ x) ⊕ (b ⊗ y)`            | 3         |
//!
//! `⊕`/`⊗` are [`crate::intrinsics::hadd`]/[`crate::intrinsics::hmul`]:
//! the operation in `f32`, rounded once to binary16. The [`scalar`] bodies
//! are written exactly that way and are the reference. The [`f16c`] bodies
//! compute eight lanes at a time with `vcvtph2ps`/`vcvtps2ph` and `f32`
//! vector arithmetic; for finite lanes that is bit-identical (widening is
//! exact, `f32` add and multiply are IEEE on both paths, and `vcvtps2ph`
//! runs with the explicit round-to-nearest-even immediate).
//!
//! Overflow provenance stays exact without a recorder call per lane. The
//! F16C body ORs a non-finite mask over every rounding of an 8-lane chunk.
//! A clean chunk only adds to a pending count of clean conversions. A
//! chunk with any non-finite lane is left unwritten: the pending count is
//! flushed with [`crate::overflow::count_clean`], and the scalar body
//! recomputes that chunk from its unmodified input, recording each
//! conversion in scalar order. The pending count is flushed once more at
//! the end of the row. Lanes are independent in every primitive, so the
//! window sees the same counts, first-event site, `conversion_index`,
//! input bits and kind as the scalar body alone would produce. Non-finite
//! lanes therefore never take the hardware path, which also keeps NaN
//! payloads exactly as the software conversions write them.
//!
//! The dispatching functions at the top level pick the F16C body when the
//! CPU has AVX2 and F16C; the check runs once per process and is cached.
//! Other hosts use the scalar body.

use crate::f16::Half;
use crate::intrinsics::{hadd, hmul};

/// True when this process runs the F16C bodies (checked once, cached).
fn hardware() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static HW: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *HW.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("f16c")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Run the F16C body when [`hardware`] allows, else the scalar one.
macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        if hardware() {
            // SAFETY: `hardware()` confirmed AVX2 and F16C on this CPU.
            return unsafe { f16c::$name($($arg),*) };
        }
        scalar::$name($($arg),*)
    }};
}

/// `dst ← round(src)`, one recorded conversion per lane.
pub fn to_half(src: &[f32], dst: &mut [Half]) {
    dispatch!(to_half(src, dst))
}

/// `dst ← widen(src)`, exact (signalling NaNs keep their payload).
pub fn to_f32(src: &[Half], dst: &mut [f32]) {
    dispatch!(to_f32(src, dst))
}

/// `acc ← acc ⊕ (w ⊗ x)` — the SpMM lane update.
pub fn axpy(acc: &mut [Half], w: Half, x: &[Half]) {
    dispatch!(axpy(acc, w, x))
}

/// `acc ← acc ⊕ ((w ⊗ x) ⊗ s)` — the pre-reduction-scaled SpMM lane update.
pub fn axpy_scaled(acc: &mut [Half], w: Half, x: &[Half], s: Half) {
    dispatch!(axpy_scaled(acc, w, x, s))
}

/// `v ← v ⊗ s`.
pub fn scale(v: &mut [Half], s: Half) {
    dispatch!(scale(v, s))
}

/// `acc ← acc ⊕ x`.
pub fn add(acc: &mut [Half], x: &[Half]) {
    dispatch!(add(acc, x))
}

/// `dst ← (a ⊗ x) ⊕ (b ⊗ y)`.
pub fn scale_add(dst: &mut [Half], a: Half, x: &[Half], b: Half, y: &[Half]) {
    dispatch!(scale_add(dst, a, x, b, y))
}

/// The reference bodies: one [`Half::from_f32`] per rounding, so under the
/// `provenance` feature every conversion is recorded individually.
pub mod scalar {
    use super::*;

    /// Scalar [`super::to_half`].
    pub fn to_half(src: &[f32], dst: &mut [Half]) {
        assert_eq!(src.len(), dst.len(), "row lengths must match");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Half::from_f32(s);
        }
    }

    /// Scalar [`super::to_f32`].
    pub fn to_f32(src: &[Half], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "row lengths must match");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.to_f32();
        }
    }

    /// Scalar [`super::axpy`].
    pub fn axpy(acc: &mut [Half], w: Half, x: &[Half]) {
        assert_eq!(acc.len(), x.len(), "row lengths must match");
        for (a, &xv) in acc.iter_mut().zip(x) {
            *a = hadd(*a, hmul(w, xv));
        }
    }

    /// Scalar [`super::axpy_scaled`].
    pub fn axpy_scaled(acc: &mut [Half], w: Half, x: &[Half], s: Half) {
        assert_eq!(acc.len(), x.len(), "row lengths must match");
        for (a, &xv) in acc.iter_mut().zip(x) {
            *a = hadd(*a, hmul(hmul(w, xv), s));
        }
    }

    /// Scalar [`super::scale`].
    pub fn scale(v: &mut [Half], s: Half) {
        for e in v.iter_mut() {
            *e = hmul(*e, s);
        }
    }

    /// Scalar [`super::add`].
    pub fn add(acc: &mut [Half], x: &[Half]) {
        assert_eq!(acc.len(), x.len(), "row lengths must match");
        for (a, &xv) in acc.iter_mut().zip(x) {
            *a = hadd(*a, xv);
        }
    }

    /// Scalar [`super::scale_add`].
    pub fn scale_add(dst: &mut [Half], a: Half, x: &[Half], b: Half, y: &[Half]) {
        assert!(dst.len() == x.len() && x.len() == y.len(), "row lengths must match");
        for ((d, &xv), &yv) in dst.iter_mut().zip(x).zip(y) {
            *d = hadd(hmul(a, xv), hmul(b, yv));
        }
    }
}

/// The AVX2 + F16C bodies. Each processes eight lanes per step; a row's
/// last partial chunk goes through zero-padded copies. Callers outside
/// the dispatcher (the equivalence tests) must check the CPU first.
#[cfg(target_arch = "x86_64")]
pub mod f16c {
    use super::{scalar, Half};
    use crate::overflow;
    use std::arch::x86_64::*;

    const LANES: usize = 8;

    /// Load up to eight halves; missing lanes read as `+0`.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn load(src: &[Half]) -> __m128i {
        let mut buf = [Half::ZERO; LANES];
        let src = if src.len() >= LANES {
            &src[..LANES]
        } else {
            buf[..src.len()].copy_from_slice(src);
            &buf[..]
        };
        // SAFETY: `src` holds at least eight `Half`s (16 bytes);
        // `loadu` has no alignment requirement.
        unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
    }

    /// Store the first `dst.len()` (at most eight) lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn store(dst: &mut [Half], v: __m128i) {
        if dst.len() >= LANES {
            // SAFETY: `dst` holds at least eight `Half`s (16 bytes);
            // `storeu` has no alignment requirement.
            unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) };
        } else {
            let mut buf = [Half::ZERO; LANES];
            // SAFETY: `buf` is eight `Half`s (16 bytes).
            unsafe { _mm_storeu_si128(buf.as_mut_ptr().cast(), v) };
            let n = dst.len();
            dst.copy_from_slice(&buf[..n]);
        }
    }

    /// Load up to eight `f32`s; missing lanes read as `+0`.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn load_f32(src: &[f32]) -> __m256 {
        let mut buf = [0f32; LANES];
        let src = if src.len() >= LANES {
            &src[..LANES]
        } else {
            buf[..src.len()].copy_from_slice(src);
            &buf[..]
        };
        // SAFETY: `src` holds at least eight `f32`s (32 bytes).
        unsafe { _mm256_loadu_ps(src.as_ptr()) }
    }

    /// Store the first `dst.len()` (at most eight) lanes of `v`.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn store_f32(dst: &mut [f32], v: __m256) {
        if dst.len() >= LANES {
            // SAFETY: `dst` holds at least eight `f32`s (32 bytes).
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) };
        } else {
            let mut buf = [0f32; LANES];
            // SAFETY: `buf` is eight `f32`s (32 bytes).
            unsafe { _mm256_storeu_ps(buf.as_mut_ptr(), v) };
            let n = dst.len();
            dst.copy_from_slice(&buf[..n]);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn widen(h: __m128i) -> __m256 {
        _mm256_cvtph_ps(h)
    }

    /// Round to binary16 with the explicit round-to-nearest-even
    /// immediate (never the MXCSR rounding mode).
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn round(v: __m256) -> __m128i {
        _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v)
    }

    /// All-ones in every lane whose exponent field is `0x1F` (INF/NaN).
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn nonfinite(h: __m128i) -> __m128i {
        let exp = _mm_set1_epi16(0x7C00);
        _mm_cmpeq_epi16(_mm_and_si128(h, exp), exp)
    }

    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn any(mask: __m128i) -> bool {
        _mm_testz_si128(mask, mask) == 0
    }

    /// Lanes of the chunk starting at `i` of an `n`-lane row.
    #[inline]
    fn chunk(i: usize, n: usize) -> std::ops::Range<usize> {
        i..(i + LANES).min(n)
    }

    /// F16C [`super::to_half`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn to_half(src: &[f32], dst: &mut [Half]) {
        assert_eq!(src.len(), dst.len(), "row lengths must match");
        let n = src.len();
        let mut clean = 0u64;
        for i in (0..n).step_by(LANES) {
            let c = chunk(i, n);
            let h = round(load_f32(&src[c.clone()]));
            if any(nonfinite(h)) {
                overflow::count_clean(std::mem::take(&mut clean));
                scalar::to_half(&src[c.clone()], &mut dst[c]);
                continue;
            }
            store(&mut dst[c.clone()], h);
            clean += c.len() as u64;
        }
        overflow::count_clean(clean);
    }

    /// F16C [`super::to_f32`]. Chunks holding an exponent-`0x1F` half take
    /// the software widening: hardware quiets signalling NaNs.
    ///
    /// # Safety
    /// The CPU must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn to_f32(src: &[Half], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "row lengths must match");
        let n = src.len();
        for i in (0..n).step_by(LANES) {
            let c = chunk(i, n);
            let h = load(&src[c.clone()]);
            if any(nonfinite(h)) {
                scalar::to_f32(&src[c.clone()], &mut dst[c]);
                continue;
            }
            store_f32(&mut dst[c], widen(h));
        }
    }

    /// F16C [`super::axpy`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn axpy(acc: &mut [Half], w: Half, x: &[Half]) {
        assert_eq!(acc.len(), x.len(), "row lengths must match");
        let n = acc.len();
        let wv = _mm256_set1_ps(w.to_f32());
        let mut clean = 0u64;
        for i in (0..n).step_by(LANES) {
            let c = chunk(i, n);
            let prod = round(_mm256_mul_ps(wv, widen(load(&x[c.clone()]))));
            let sum = round(_mm256_add_ps(widen(load(&acc[c.clone()])), widen(prod)));
            if any(_mm_or_si128(nonfinite(prod), nonfinite(sum))) {
                overflow::count_clean(std::mem::take(&mut clean));
                scalar::axpy(&mut acc[c.clone()], w, &x[c]);
                continue;
            }
            store(&mut acc[c.clone()], sum);
            clean += 2 * c.len() as u64;
        }
        overflow::count_clean(clean);
    }

    /// F16C [`super::axpy_scaled`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn axpy_scaled(acc: &mut [Half], w: Half, x: &[Half], s: Half) {
        assert_eq!(acc.len(), x.len(), "row lengths must match");
        let n = acc.len();
        let (wv, sv) = (_mm256_set1_ps(w.to_f32()), _mm256_set1_ps(s.to_f32()));
        let mut clean = 0u64;
        for i in (0..n).step_by(LANES) {
            let c = chunk(i, n);
            let prod = round(_mm256_mul_ps(wv, widen(load(&x[c.clone()]))));
            let scaled = round(_mm256_mul_ps(widen(prod), sv));
            let sum = round(_mm256_add_ps(widen(load(&acc[c.clone()])), widen(scaled)));
            let mask =
                _mm_or_si128(_mm_or_si128(nonfinite(prod), nonfinite(scaled)), nonfinite(sum));
            if any(mask) {
                overflow::count_clean(std::mem::take(&mut clean));
                scalar::axpy_scaled(&mut acc[c.clone()], w, &x[c], s);
                continue;
            }
            store(&mut acc[c.clone()], sum);
            clean += 3 * c.len() as u64;
        }
        overflow::count_clean(clean);
    }

    /// F16C [`super::scale`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn scale(v: &mut [Half], s: Half) {
        let n = v.len();
        let sv = _mm256_set1_ps(s.to_f32());
        let mut clean = 0u64;
        for i in (0..n).step_by(LANES) {
            let c = chunk(i, n);
            let out = round(_mm256_mul_ps(widen(load(&v[c.clone()])), sv));
            if any(nonfinite(out)) {
                overflow::count_clean(std::mem::take(&mut clean));
                scalar::scale(&mut v[c], s);
                continue;
            }
            store(&mut v[c.clone()], out);
            clean += c.len() as u64;
        }
        overflow::count_clean(clean);
    }

    /// F16C [`super::add`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn add(acc: &mut [Half], x: &[Half]) {
        assert_eq!(acc.len(), x.len(), "row lengths must match");
        let n = acc.len();
        let mut clean = 0u64;
        for i in (0..n).step_by(LANES) {
            let c = chunk(i, n);
            let sum =
                round(_mm256_add_ps(widen(load(&acc[c.clone()])), widen(load(&x[c.clone()]))));
            if any(nonfinite(sum)) {
                overflow::count_clean(std::mem::take(&mut clean));
                scalar::add(&mut acc[c.clone()], &x[c]);
                continue;
            }
            store(&mut acc[c.clone()], sum);
            clean += c.len() as u64;
        }
        overflow::count_clean(clean);
    }

    /// F16C [`super::scale_add`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn scale_add(dst: &mut [Half], a: Half, x: &[Half], b: Half, y: &[Half]) {
        assert!(dst.len() == x.len() && x.len() == y.len(), "row lengths must match");
        let n = dst.len();
        let (av, bv) = (_mm256_set1_ps(a.to_f32()), _mm256_set1_ps(b.to_f32()));
        let mut clean = 0u64;
        for i in (0..n).step_by(LANES) {
            let c = chunk(i, n);
            let ax = round(_mm256_mul_ps(av, widen(load(&x[c.clone()]))));
            let by = round(_mm256_mul_ps(bv, widen(load(&y[c.clone()]))));
            let sum = round(_mm256_add_ps(widen(ax), widen(by)));
            let mask = _mm_or_si128(_mm_or_si128(nonfinite(ax), nonfinite(by)), nonfinite(sum));
            if any(mask) {
                overflow::count_clean(std::mem::take(&mut clean));
                scalar::scale_add(&mut dst[c.clone()], a, &x[c.clone()], b, &y[c]);
                continue;
            }
            store(&mut dst[c.clone()], sum);
            clean += 3 * c.len() as u64;
        }
        overflow::count_clean(clean);
    }
}
