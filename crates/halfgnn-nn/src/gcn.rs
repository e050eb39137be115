//! GCN (Kipf & Welling) with right degree normalization — Eq. 2 of the
//! paper, specialized to the "frequently used" `right` norm its overflow
//! analysis centers on: `H' = σ(D⁻¹ Â (H W))`.
//!
//! Forward per layer: GeMM → bias → SpMMv with mean aggregation → ReLU
//! (last layer: no ReLU; softmax cross-entropy in f32).
//!
//! Backward: the mean aggregation's adjoint on a symmetric Â is a row
//! scaling by `1/deg` followed by a plain-sum SpMMv — scaling happens
//! *before* the reduction, so the backward pass is overflow-safe under any
//! kernel, exactly as §3.1.3 observes for right norm.

use crate::elem::Elem;
use crate::graphdata::GraphView;
use crate::models::{Dispatch, GcnNorm};
use crate::params::{TwoLayerGrads, TwoLayerParams};
use halfgnn_half::overflow::site;
use halfgnn_tensor::Ops;
use std::borrow::Cow;

/// Result of one training step.
pub struct StepOutput<G> {
    /// Mean training loss.
    pub loss: f32,
    /// Parameter gradients (f32 master domain).
    pub grads: G,
    /// Full logits (f32), for evaluation.
    pub logits: Vec<f32>,
}

/// One forward pass: the step's weight casts and the activations the
/// backward pass reads, plus the logits.
pub struct Forward<'a, T: Elem> {
    w2: Cow<'a, [T]>,
    /// Whatever fed layer 1's GeMM: `X` or `Â·X`.
    lin_in: Cow<'a, [T]>,
    a1: Vec<T>,
    h1: Vec<T>,
    /// Logits, row-major `n × classes`, in f32 (the loss is promoted).
    pub logits: Vec<f32>,
}

/// Forward pass over `g` — what training steps and serving both run.
///
/// Layer-1 order follows DGL's `GraphConv` dispatch: when
/// `in_feats ≤ out_feats` it aggregates the (cheaper) raw features first,
/// then transforms — `(Â X) W` — otherwise it transforms first. The two
/// orders are mathematically identical; the dispatch matters because
/// aggregate-first runs SpMM on the raw input features, which is where
/// count-like datasets overflow FP16 (§3.1.3).
pub fn forward<'a, T: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &'a TwoLayerParams,
    x: &'a [T],
    d: Dispatch<'_>,
    norm: GcnNorm,
) -> Forward<'a, T> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let w1 = T::weight(ops, &p.w1);
    let b1 = T::weight(ops, &p.b1);
    let w2 = T::weight(ops, &p.w2);
    let b2 = T::weight(ops, &p.b2);

    let layer1 = site("gcn.layer1");
    let (lin_in, a1) = if f_in <= h {
        let ax = T::gcn_agg(ops, g, x, f_in, norm, d);
        let z1 = T::gemm(ops, &ax, false, &w1, false, n, f_in, h);
        let a1 = T::bias_add(ops, &z1, &b1);
        (Cow::Owned(ax), a1)
    } else {
        let z1 = T::gemm(ops, x, false, &w1, false, n, f_in, h);
        let z1 = T::bias_add(ops, &z1, &b1);
        (Cow::Borrowed(x), T::gcn_agg(ops, g, &z1, h, norm, d))
    };
    drop(layer1);
    let layer2 = site("gcn.layer2");
    let h1 = T::relu(ops, &a1);
    let z2 = T::gemm(ops, &h1, false, &w2, false, n, h, c);
    let z2 = T::bias_add(ops, &z2, &b2);
    let out = T::gcn_agg(ops, g, &z2, c, norm, d);
    drop(layer2);
    let logits = T::logits(ops, out);
    Forward { w2, lin_in, a1, h1, logits }
}

/// One training step: [`forward`], softmax cross-entropy on `mask`, and
/// the backward pass in the state precision.
#[allow(clippy::too_many_arguments)]
pub fn step<T: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &TwoLayerParams,
    x: &[T],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
    norm: GcnNorm,
) -> StepOutput<TwoLayerGrads> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let fwd = forward(ops, g, p, x, d, norm);
    let (loss, dlogits, _) = ops.softmax_xent_f32(&fwd.logits, labels, mask, c);

    let _bwd = site("gcn.backward");
    let dout = T::loss_grad(ops, dlogits);
    let dz2 = T::gcn_agg_backward(ops, g, &dout, c, norm, d);
    let dw2 = T::grad_gemm(ops, &fwd.h1, &dz2, h, n, c, d);
    let db2 = T::grad_colsum(ops, &dz2, c, d);
    let dh1 = T::gemm(ops, &dz2, false, &fwd.w2, true, n, c, h);
    let da1 = T::relu_grad(ops, &fwd.a1, &dh1);
    let (dw1, db1) = if f_in <= h {
        // a1 = agg(X)W + b: the SpMM is upstream of the GeMM, so δW = agg(X)ᵀ δa1.
        (T::grad_gemm(ops, &fwd.lin_in, &da1, f_in, n, h, d), T::grad_colsum(ops, &da1, h, d))
    } else {
        let dz1 = T::gcn_agg_backward(ops, g, &da1, h, norm, d);
        (T::grad_gemm(ops, &fwd.lin_in, &dz1, f_in, n, h, d), T::grad_colsum(ops, &dz1, h, d))
    };

    let [w1, w2] = [dw1, dw2].map(|g| T::master_grad(ops, g));
    let [w1, w2, b1, b2] = T::unscale(ops, [w1, w2, db1, db2]);
    StepOutput { loss, grads: TwoLayerGrads { w1, b1, w2, b2 }, logits: fwd.logits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PrecisionMode;
    use halfgnn_graph::gen;
    use halfgnn_graph::Csr;
    use halfgnn_half::Half;
    use halfgnn_sim::DeviceConfig;

    fn float_step(
        ops: &mut Ops,
        g: &GraphView,
        p: &TwoLayerParams,
        x: &[f32],
        labels: &[u32],
        mask: &[bool],
    ) -> StepOutput<TwoLayerGrads> {
        step(ops, g, p, x, labels, mask, Dispatch::untuned(PrecisionMode::Float), GcnNorm::Right)
    }

    fn toy() -> (GraphView, Vec<f32>, Vec<u32>, Vec<bool>) {
        let (edges, labels) = gen::sbm(&[20, 20], 0.4, 0.02, 3);
        let csr = Csr::from_edges(40, 40, &edges).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x = halfgnn_graph::features::class_features(&labels, 2, 8, 1.0, 0.2, 5);
        let mask = vec![true; 40];
        (g, x, labels, mask)
    }

    #[test]
    fn f32_gradients_match_finite_differences() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let mut p = TwoLayerParams::new(8, 6, 2, 1);
        let mut ops = Ops::new(&dev);
        let out = float_step(&mut ops, &g, &p, &x, &labels, &mask);
        // Check a handful of weight coordinates by central differences.
        let eps = 1e-3;
        for &idx in &[0usize, 7, 13, 40] {
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.w1[idx] = orig - eps;
            let lm = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.w1[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w1[idx]).abs() < 5e-3,
                "w1[{idx}]: fd {fd} vs analytic {}",
                out.grads.w1[idx]
            );
        }
        for &idx in &[0usize, 5] {
            let orig = p.w2[idx];
            p.w2[idx] = orig + eps;
            let lp = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.w2[idx] = orig - eps;
            let lm = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.w2[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w2[idx]).abs() < 5e-3,
                "w2[{idx}]: fd {fd} vs analytic {}",
                out.grads.w2[idx]
            );
        }
    }

    #[test]
    fn all_norms_match_finite_differences() {
        // One W1 coordinate per norm suffices: it exercises the full
        // forward/adjoint pair for that norm.
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let mut p = TwoLayerParams::new(8, 6, 2, 3);
        let eps = 1e-3;
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        for norm in [GcnNorm::Right, GcnNorm::Left, GcnNorm::Both] {
            let mut ops = Ops::new(&dev);
            let out = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, norm);
            let idx = 5;
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, norm).loss;
            p.w1[idx] = orig - eps;
            let lm = step(&mut ops, &g, &p, &x, &labels, &mask, fd32, norm).loss;
            p.w1[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w1[idx]).abs() < 1e-2 + 0.1 * fd.abs(),
                "{norm:?}: fd {fd} vs {}",
                out.grads.w1[idx]
            );
        }
    }

    #[test]
    fn norms_agree_on_a_regular_graph() {
        // On a degree-regular graph, right, left and both norms are the
        // same operator: outputs must coincide.
        let dev = DeviceConfig::a100_like();
        // A ring: every vertex has degree 3 after self loops.
        let n = 24u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let csr = halfgnn_graph::Csr::from_edges(n as usize, n as usize, &edges)
            .symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x: Vec<f32> = (0..n as usize * 4).map(|i| (i % 13) as f32 * 0.25 - 1.5).collect();
        let mut ops = Ops::new(&dev);
        let fd32 = Dispatch::untuned(PrecisionMode::Float);
        let r = crate::models::gcn_agg_f32(&mut ops, &g, &x, 4, GcnNorm::Right, fd32);
        let l = crate::models::gcn_agg_f32(&mut ops, &g, &x, 4, GcnNorm::Left, fd32);
        let b = crate::models::gcn_agg_f32(&mut ops, &g, &x, 4, GcnNorm::Both, fd32);
        for i in 0..r.len() {
            assert!((r[i] - l[i]).abs() < 1e-4, "right vs left at {i}");
            assert!((r[i] - b[i]).abs() < 1e-4, "right vs both at {i}");
        }
    }

    #[test]
    fn left_norm_forward_is_overflow_safe_under_naive_half() {
        // §3.1.3: with left norm there is no *forward* overflow even for
        // the naive kernels — the input is pre-scaled.
        let dev = DeviceConfig::a100_like();
        let deg = 900u32;
        let mut edges: Vec<(u32, u32)> = (1..=deg).map(|c| (0u32, c)).collect();
        edges.extend((1..deg).map(|v| (v, v + 1)));
        let csr = halfgnn_graph::Csr::from_edges(deg as usize + 1, deg as usize + 1, &edges)
            .symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x: Vec<halfgnn_half::Half> =
            vec![halfgnn_half::Half::from_f32(100.0); (deg as usize + 1) * 4];
        let mut ops = Ops::new(&dev);
        let y_left = crate::models::gcn_agg_half(
            &mut ops,
            &g,
            &x,
            4,
            GcnNorm::Left,
            PrecisionMode::HalfNaive.into(),
        );
        assert!(y_left.iter().all(|v| v.is_finite()), "left-norm forward must be safe");
        let y_right = crate::models::gcn_agg_half(
            &mut ops,
            &g,
            &x,
            4,
            GcnNorm::Right,
            PrecisionMode::HalfNaive.into(),
        );
        assert!(y_right[0].is_infinite(), "right-norm forward overflows on the hub");
        // ... but the left-norm *adjoint* (sum then scale) overflows:
        let d_left = Half::gcn_agg_backward(
            &mut ops,
            &g,
            &x,
            4,
            GcnNorm::Left,
            PrecisionMode::HalfNaive.into(),
        );
        assert!(d_left[0].is_infinite(), "left-norm backward overflows (§3.1.3)");
        // ... and HalfGNN's discretized kernels are safe on both sides.
        let d_ours = Half::gcn_agg_backward(
            &mut ops,
            &g,
            &x,
            4,
            GcnNorm::Left,
            PrecisionMode::HalfGnn.into(),
        );
        assert!(d_ours.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn half_step_tracks_f32_step() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let p = TwoLayerParams::new(8, 6, 2, 1);
        let xh: Vec<halfgnn_half::Half> =
            x.iter().map(|&v| halfgnn_half::Half::from_f32(v)).collect();
        let mut ops = Ops::new(&dev);
        let f = float_step(&mut ops, &g, &p, &x, &labels, &mask);
        let hstep = step(
            &mut ops,
            &g,
            &p,
            &xh,
            &labels,
            &mask,
            PrecisionMode::HalfGnn.into(),
            GcnNorm::Right,
        );
        assert!((f.loss - hstep.loss).abs() < 0.05, "{} vs {}", f.loss, hstep.loss);
        // Gradient direction agreement (cosine similarity) on W1.
        let dot: f32 = f.grads.w1.iter().zip(&hstep.grads.w1).map(|(a, b)| a * b).sum();
        let na: f32 = f.grads.w1.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nb: f32 = hstep.grads.w1.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(dot / (na * nb) > 0.98, "cosine {}", dot / (na * nb));
    }
}
