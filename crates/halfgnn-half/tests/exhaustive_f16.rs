//! Exhaustive binary16 validation: every one of the 2^16 bit patterns
//! round-trips through `f32`, and the round-to-nearest-even boundaries the
//! paper's overflow analysis (§3.1.3) depends on are pinned value by value.

use halfgnn_half::Half;

/// `half → f32 → half` must be the identity on every bit pattern: the
/// widening is exact, so the only way to lose information is a rounding
/// bug in `from_f32`. NaNs keep NaN-ness (payloads may be quietized).
#[test]
fn exhaustive_round_trip_all_65536_bit_patterns() {
    for bits in 0..=u16::MAX {
        let h = Half::from_bits(bits);
        let widened = h.to_f32();
        let back = Half::from_f32(widened);
        if h.is_nan() {
            assert!(back.is_nan(), "bits {bits:#06x}: NaN must survive the round trip");
            assert_eq!(
                back.to_bits() & 0x8000,
                bits & 0x8000,
                "bits {bits:#06x}: NaN sign must survive"
            );
        } else {
            assert_eq!(
                back.to_bits(),
                bits,
                "bits {bits:#06x} (value {widened:e}) must round-trip exactly"
            );
        }
    }
}

/// `to_f64` must agree with `to_f32` everywhere (binary16 ⊂ f32 ⊂ f64).
#[test]
fn exhaustive_f64_widening_matches_f32() {
    for bits in 0..=u16::MAX {
        let h = Half::from_bits(bits);
        if h.is_nan() {
            assert!(h.to_f64().is_nan());
        } else {
            assert_eq!(h.to_f64(), h.to_f32() as f64, "bits {bits:#06x}");
        }
    }
}

/// Round-to-nearest-even boundary table. Each row is `(f32 input, expected
/// binary16 bits)`; the cases cover tie-to-even at mantissa granularity,
/// the subnormal/zero underflow boundary, and the 65504/65520 overflow
/// cliff — with both signs.
#[test]
fn rne_boundary_table() {
    let ulp = |p: i32| 2.0_f32.powi(p);
    let cases: &[(f32, u16, &str)] = &[
        // --- ties around 1.0 (half ulp there is 2^-10, half of it 2^-11)
        (1.0, 0x3C00, "exact one"),
        (1.0 + ulp(-11), 0x3C00, "tie below odd: to even mantissa 0"),
        (1.0 + ulp(-11) + ulp(-22), 0x3C01, "just above the tie: rounds up"),
        (1.0 + 3.0 * ulp(-11), 0x3C02, "tie above odd mantissa 1: to even 2"),
        (1.0 + ulp(-10), 0x3C01, "exactly representable next value"),
        // --- subnormal underflow boundary (smallest subnormal is 2^-24)
        (ulp(-24), 0x0001, "smallest subnormal is exact"),
        (ulp(-25), 0x0000, "tie between 0 and 2^-24: to even zero"),
        (ulp(-25) + ulp(-40), 0x0001, "just above the tie: smallest subnormal"),
        (1.5 * ulp(-24), 0x0002, "tie between subnormals 1 and 2: to even 2"),
        (ulp(-26), 0x0000, "below the tie: zero"),
        (ulp(-14), 0x0400, "smallest normal is exact"),
        (ulp(-14) - ulp(-24), 0x03FF, "largest subnormal is exact"),
        // --- overflow cliff (max finite 65504; ≥ 65520 rounds to INF)
        (65504.0, 0x7BFF, "max finite is exact"),
        (65519.0, 0x7BFF, "below the overflow tie: rounds down to max"),
        (65520.0, 0x7C00, "tie between 65504 and 2^16: to even = INF"),
        (65521.0, 0x7C00, "above the tie: INF"),
        (65536.0, 0x7C00, "2^16 overflows regardless of rounding"),
        (f32::MAX, 0x7C00, "f32::MAX overflows"),
        (f32::INFINITY, 0x7C00, "INF propagates"),
        // --- negative mirror of every boundary
        (-1.0 - ulp(-11), 0xBC00, "negative tie to even"),
        (-ulp(-25), 0x8000, "negative underflow keeps the sign: -0"),
        (-65519.0, 0xFBFF, "negative below the cliff"),
        (-65520.0, 0xFC00, "negative tie overflows to -INF"),
        (-f32::INFINITY, 0xFC00, "-INF propagates"),
        // --- signed zero
        (0.0, 0x0000, "+0"),
        (-0.0, 0x8000, "-0"),
    ];
    for (input, want, why) in cases {
        let got = Half::from_f32(*input).to_bits();
        assert_eq!(got, *want, "{why}: from_f32({input:e}) = {got:#06x}, want {want:#06x}");
    }
    // NaN quietization: any f32 NaN converts to a binary16 NaN.
    assert!(Half::from_f32(f32::NAN).is_nan());
}

/// The instrumented and raw conversion paths must be numerically identical
/// for every representable half (the provenance hook must never change
/// values, only observe them).
#[test]
fn instrumented_conversion_equals_raw() {
    for bits in 0..=u16::MAX {
        let v = Half::from_bits(bits).to_f32();
        let a = Half::from_f32(v).to_bits();
        let b = Half::from_f32_raw(v).to_bits();
        assert_eq!(a, b, "bits {bits:#06x}");
    }
}

/// Row-primitive equivalence: every F16C body of `rows` against its scalar
/// reference body, called directly (not through the dispatcher) so the
/// scalar fallback stays covered on hosts that have F16C. Outputs must
/// match bit for bit and, under the `provenance` feature, so must the
/// whole overflow summary: counts, first-event site, conversion index,
/// input bits and kind. On hosts without AVX2 + F16C there is nothing to
/// compare and the tests return early.
#[cfg(target_arch = "x86_64")]
mod rows_f16c {
    use halfgnn_half::overflow::{self, Summary};
    use halfgnn_half::rows::{f16c, scalar};
    use halfgnn_half::Half;

    /// Proof that this CPU has AVX2 and F16C; its methods are safe
    /// wrappers over the F16C bodies.
    #[derive(Clone, Copy)]
    struct Hw(());

    impl Hw {
        fn detect() -> Option<Hw> {
            let ok = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("f16c");
            ok.then_some(Hw(()))
        }

        fn to_half(self, src: &[f32], dst: &mut [Half]) {
            // SAFETY: an `Hw` exists only after `detect` found AVX2 and F16C.
            unsafe { f16c::to_half(src, dst) }
        }

        fn to_f32(self, src: &[Half], dst: &mut [f32]) {
            // SAFETY: as in `to_half`.
            unsafe { f16c::to_f32(src, dst) }
        }

        fn axpy(self, acc: &mut [Half], w: Half, x: &[Half]) {
            // SAFETY: as in `to_half`.
            unsafe { f16c::axpy(acc, w, x) }
        }

        fn axpy_scaled(self, acc: &mut [Half], w: Half, x: &[Half], s: Half) {
            // SAFETY: as in `to_half`.
            unsafe { f16c::axpy_scaled(acc, w, x, s) }
        }

        fn scale(self, v: &mut [Half], s: Half) {
            // SAFETY: as in `to_half`.
            unsafe { f16c::scale(v, s) }
        }

        fn add(self, acc: &mut [Half], x: &[Half]) {
            // SAFETY: as in `to_half`.
            unsafe { f16c::add(acc, x) }
        }

        fn scale_add(self, dst: &mut [Half], a: Half, x: &[Half], b: Half, y: &[Half]) {
            // SAFETY: as in `to_half`.
            unsafe { f16c::scale_add(dst, a, x, b, y) }
        }
    }

    /// Every value class the hardware path must agree on: signed zeros,
    /// subnormals, the smallest normal, ±1, the largest finite values,
    /// infinities, quiet and signalling NaNs, and a few arbitrary values.
    const CLASSES: [u16; 18] = [
        0x0000, 0x8000, // ±0
        0x0001, 0x83FF, // subnormals
        0x0400, // min normal
        0x3C00, 0xBC00, // ±1
        0x7BFF, 0xFBFF, // ±max
        0x7C00, 0xFC00, // ±INF
        0x7E00, 0xFE55, // qNaN
        0x7C01, 0xFD00, // sNaN
        0x3555, 0xC8A3, 0x5A5A, // arbitrary
    ];

    fn all_halves() -> Vec<Half> {
        (0..=u16::MAX).map(Half::from_bits).collect()
    }

    fn classes() -> impl Iterator<Item = Half> {
        CLASSES.iter().map(|&b| Half::from_bits(b))
    }

    fn bits(v: &[Half]) -> Vec<u16> {
        v.iter().map(|h| h.to_bits()).collect()
    }

    fn summary_key(s: &Summary) -> String {
        let first = s.first.as_ref().map(|e| {
            format!("{:?} '{}' #{} {:08x}", e.kind, e.site, e.conversion_index, e.input.to_bits())
        });
        format!(
            "{} {} {} {} {first:?}",
            s.conversions, s.overflows, s.inf_propagated, s.nan_propagated
        )
    }

    /// Run the scalar and F16C bodies on copies of `init` in isolated
    /// windows; both the final buffers and the summaries must match.
    fn same(
        init: &[Half],
        what: &str,
        scalar_body: impl Fn(&mut [Half]),
        hw: impl Fn(&mut [Half]),
    ) {
        let mut want = init.to_vec();
        let (_, ws) = overflow::isolated(|| scalar_body(&mut want));
        let mut got = init.to_vec();
        let (_, gs) = overflow::isolated(|| hw(&mut got));
        assert!(bits(&want) == bits(&got), "{what}: outputs differ");
        assert_eq!(summary_key(&ws), summary_key(&gs), "{what}: provenance differs");
    }

    #[test]
    fn to_f32_is_bit_equal_on_all_halves_including_signalling_nans() {
        let Some(hw) = Hw::detect() else { return };
        let src = all_halves();
        let mut want = vec![0f32; src.len()];
        let mut got = vec![0f32; src.len()];
        scalar::to_f32(&src, &mut want);
        hw.to_f32(&src, &mut got);
        let mut signalling = 0;
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "half {i:#06x}");
            let h = i as u16;
            if h & 0x7C00 == 0x7C00 && h & 0x03FF != 0 && h & 0x0200 == 0 {
                signalling += 1;
                assert_eq!(g.to_bits() & 0x0040_0000, 0, "sNaN {i:#06x} was quieted");
            }
        }
        assert_eq!(signalling, 1022, "binary16 has 1022 signalling-NaN encodings");
    }

    #[test]
    fn binary_primitives_match_on_all_halves_times_every_class() {
        let Some(hw) = Hw::detect() else { return };
        let all = all_halves();
        for c in classes() {
            let row = vec![c; all.len()];
            // add: the swept operand on either side.
            same(&all, "add(all, c)", |a| scalar::add(a, &row), |a| hw.add(a, &row));
            same(&row, "add(c, all)", |a| scalar::add(a, &all), |a| hw.add(a, &all));
            // scale: swept row, class factor.
            same(&all, "scale(all, c)", |v| scalar::scale(v, c), |v| hw.scale(v, c));
        }
        // scale: class rows, swept factor.
        let class_row: Vec<Half> = classes().collect();
        for s in &all {
            same(&class_row, "scale(c, all)", |v| scalar::scale(v, *s), |v| hw.scale(v, *s));
        }
    }

    #[test]
    fn ternary_primitives_match_on_all_halves_times_every_class_pair() {
        let Some(hw) = Hw::detect() else { return };
        let all = all_halves();
        // Rows over every class pair (p, q) for the sweeps of a scalar
        // operand.
        let (ps, qs): (Vec<Half>, Vec<Half>) =
            classes().flat_map(|p| classes().map(move |q| (p, q))).unzip();
        for p in classes() {
            let prow = vec![p; all.len()];
            for q in classes() {
                let qrow = vec![q; all.len()];
                // axpy: acc swept (w = p, x = q) and x swept (acc = q, w = p).
                same(&all, "axpy acc", |a| scalar::axpy(a, p, &qrow), |a| hw.axpy(a, p, &qrow));
                same(&qrow, "axpy x", |a| scalar::axpy(a, p, &all), |a| hw.axpy(a, p, &all));
                // axpy_scaled: acc swept, x swept (w = p, s = q).
                same(
                    &all,
                    "axpy_scaled acc",
                    |a| scalar::axpy_scaled(a, p, &prow, q),
                    |a| hw.axpy_scaled(a, p, &prow, q),
                );
                same(
                    &prow,
                    "axpy_scaled x",
                    |a| scalar::axpy_scaled(a, p, &all, q),
                    |a| hw.axpy_scaled(a, p, &all, q),
                );
                // scale_add: x swept and y swept (a = p, b = q).
                let zero = vec![Half::ZERO; all.len()];
                same(
                    &zero,
                    "scale_add x",
                    |d| scalar::scale_add(d, p, &all, q, &prow),
                    |d| hw.scale_add(d, p, &all, q, &prow),
                );
                same(
                    &zero,
                    "scale_add y",
                    |d| scalar::scale_add(d, p, &qrow, q, &all),
                    |d| hw.scale_add(d, p, &qrow, q, &all),
                );
            }
        }
        // Scalar operands swept over every half against every class pair.
        let zero = vec![Half::ZERO; ps.len()];
        for &v in &all {
            same(&ps, "axpy w", |a| scalar::axpy(a, v, &qs), |a| hw.axpy(a, v, &qs));
            same(
                &ps,
                "axpy_scaled w",
                |a| scalar::axpy_scaled(a, v, &qs, v),
                |a| hw.axpy_scaled(a, v, &qs, v),
            );
            same(
                &ps,
                "axpy_scaled s",
                |a| scalar::axpy_scaled(a, Half::ONE, &qs, v),
                |a| hw.axpy_scaled(a, Half::ONE, &qs, v),
            );
            same(
                &zero,
                "scale_add a, b",
                |d| scalar::scale_add(d, v, &ps, v, &qs),
                |d| hw.scale_add(d, v, &ps, v, &qs),
            );
        }
    }

    /// Every row length up to two chunks plus one, at every start offset
    /// within a chunk, over rows that mix finite and non-finite lanes:
    /// lanes outside the row must stay untouched.
    #[test]
    fn every_row_length_and_unaligned_start_matches() {
        let Some(hw) = Hw::detect() else { return };
        let pool: Vec<Half> = (0..64u32)
            .map(|i| {
                let c = CLASSES[(i as usize * 7) % CLASSES.len()];
                // Mostly finite values, with classes (NaN, INF, …) mixed in.
                if i % 5 == 0 {
                    Half::from_bits(c)
                } else {
                    Half::from_f32((i as f32 * 37.0).sin() * 300.0)
                }
            })
            .collect();
        let floats: Vec<f32> = (0..64u32)
            .map(|i| match i % 11 {
                3 => f32::NAN,
                7 => 70_000.0,
                9 => f32::NEG_INFINITY,
                _ => (i as f32 * 13.0).cos() * 65_519.0,
            })
            .collect();
        let (w, s) = (Half::from_f32(1.5), Half::from_f32(0.75));
        for len in 0..=17 {
            for start in 0..8 {
                let r = start..start + len;
                let x = &pool[32..32 + len];
                let y = &pool[40..40 + len];
                let at = |what: &str| format!("{what} len {len} start {start}");
                let init = pool[..32].to_vec();
                same(
                    &init,
                    &at("axpy"),
                    |b| scalar::axpy(&mut b[r.clone()], w, x),
                    |b| hw.axpy(&mut b[r.clone()], w, x),
                );
                same(
                    &init,
                    &at("axpy_scaled"),
                    |b| scalar::axpy_scaled(&mut b[r.clone()], w, x, s),
                    |b| hw.axpy_scaled(&mut b[r.clone()], w, x, s),
                );
                same(
                    &init,
                    &at("scale"),
                    |b| scalar::scale(&mut b[r.clone()], s),
                    |b| hw.scale(&mut b[r.clone()], s),
                );
                same(
                    &init,
                    &at("add"),
                    |b| scalar::add(&mut b[r.clone()], x),
                    |b| hw.add(&mut b[r.clone()], x),
                );
                same(
                    &init,
                    &at("scale_add"),
                    |b| scalar::scale_add(&mut b[r.clone()], w, x, s, y),
                    |b| hw.scale_add(&mut b[r.clone()], w, x, s, y),
                );
                let src = &floats[start..start + len];
                same(
                    &init,
                    &at("to_half"),
                    |b| scalar::to_half(src, &mut b[r.clone()]),
                    |b| hw.to_half(src, &mut b[r.clone()]),
                );
                let hsrc = &pool[start..start + len];
                let mut want = vec![1f32; 32];
                let mut got = vec![1f32; 32];
                scalar::to_f32(hsrc, &mut want[r.clone()]);
                hw.to_f32(hsrc, &mut got[r.clone()]);
                let fbits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(fbits(&want), fbits(&got), "{}", at("to_f32"));
            }
        }
    }

    /// `to_half` on every `2^32` f32 bit pattern, in 64 Ki blocks.
    #[test]
    #[ignore = "2^32 inputs: run in release with --include-ignored"]
    fn to_half_is_bit_equal_on_all_f32_inputs() {
        let Some(hw) = Hw::detect() else { return };
        const BLOCK: u64 = 1 << 16;
        let init = vec![Half::ZERO; BLOCK as usize];
        let mut src = vec![0f32; BLOCK as usize];
        for block in 0..(1u64 << 32) / BLOCK {
            for (i, v) in src.iter_mut().enumerate() {
                *v = f32::from_bits((block * BLOCK + i as u64) as u32);
            }
            same(&init, "to_half", |d| scalar::to_half(&src, d), |d| hw.to_half(&src, d));
        }
    }
}
