//! GAT (Veličković et al.), single head, two layers.
//!
//! Per layer, with destination vertex `i` = SpMM row and source `j` =
//! column:
//!
//! ```text
//! z      = X · W                      (projection, no bias)
//! s_dst  = z · a_dst ; s_src = z · a_src
//! e_ij   = LeakyReLU(s_dst[i] + s_src[j])          (edge op)
//! m_i    = max_j e_ij                              (SpMM-max)
//! ê_ij   = exp(e_ij − m_i)                         (shadow / AMP exp)
//! α_ij   = ê_ij / Σ_j ê_ij                         (SpMM-sum + edge div)
//! h'_i   = Σ_j α_ij · z_j                          (SpMMve)
//! ```
//!
//! This is Eq. 1 of the paper verbatim, so GAT exercises every kernel
//! class: SpMMve, SDDMM (in backward), edge-level maps, and the
//! promoted-or-shadowed `exp` whose data-conversion cost §3.1.2 analyses.
//! The attention weights are a softmax (≤ 1, rows sum to 1), so the
//! aggregation cannot overflow — which is why Fig. 1c shows GAT-half
//! *not* collapsing while GCN/GIN do.

use crate::elem::Elem;
use crate::gcn::StepOutput;
use crate::graphdata::GraphView;
use crate::models::Dispatch;
use crate::params::{GatGrads, GatParams};
use halfgnn_half::overflow::site;
use halfgnn_kernels::common::Reduce;
use halfgnn_tensor::Ops;
use std::borrow::Cow;

/// LeakyReLU slope for attention logits (the GAT paper's 0.2).
pub const ATTN_SLOPE: f32 = 0.2;

/// Saved forward state of one GAT layer.
struct LayerState<T> {
    z: Vec<T>,
    e: Vec<T>,
    alpha: Vec<T>,
}

/// One attention layer; returns its saved state and its output.
#[allow(clippy::too_many_arguments)]
fn layer_forward<T: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    x: &[T],
    w: &[T],
    a_src: &[T],
    a_dst: &[T],
    f_in: usize,
    f_out: usize,
    d: Dispatch<'_>,
) -> (LayerState<T>, Vec<T>) {
    let n = g.n();
    let z = T::gemm(ops, x, false, w, false, n, f_in, f_out);
    let s_src = T::gemm(ops, &z, false, a_src, false, n, f_out, 1);
    let s_dst = T::gemm(ops, &z, false, a_dst, false, n, f_out, 1);
    if d.attn_fused(g, f_out) {
        // One pass over the edges: scores, running row-max, shadow exp,
        // row-sum, normalize, aggregate. The kernel's own provenance site
        // nests under the ambient layer site ("gat.layerN/fused_attn").
        let [e, alpha, out] =
            T::fused_attn_forward(ops, g, &s_dst, &s_src, ATTN_SLOPE, &z, f_out, d);
        return (LayerState { z, e, alpha }, out);
    }
    let e = T::attn_logits(ops, g, &s_dst, &s_src, ATTN_SLOPE);
    let m = T::edge_reduce(ops, g, &e, Reduce::Max, d);
    let en = T::sub_row_exp(ops, g, &e, &m, d);
    let zs = T::edge_reduce(ops, g, &en, Reduce::Sum, d);
    let alpha = T::div_row(ops, g, &en, &zs);
    let out = T::spmmve(ops, g, &alpha, &z, f_out, d);
    (LayerState { z, e, alpha }, out)
}

/// Backward of one GAT layer. Returns `(δx, δw, δa_src, δa_dst)`.
#[allow(clippy::too_many_arguments)]
fn layer_backward<T: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    state: &LayerState<T>,
    x: &[T],
    w: &[T],
    a_src: &[T],
    a_dst: &[T],
    dh: &[T],
    f_in: usize,
    f_out: usize,
    d: Dispatch<'_>,
) -> (Vec<T>, Vec<T>, Vec<T>, Vec<T>) {
    let n = g.n();
    // Aggregation adjoint: δz += Σ_i α_ij δh_i (SpMMve on Âᵀ with permuted α).
    let alpha_t = g.permute_to_transpose(&state.alpha);
    let dz_agg = T::spmmve(ops, g, &alpha_t, dh, f_out, d);
    // δα_ij = dot(δh_i, z_j): the SDDMM of §2.1.2.
    let dalpha = T::sddmm(ops, g, dh, &state.z, f_out, d);
    let de = if d.attn_fused(g, f_out) {
        // Fused edge-softmax backward: t stays register-resident, one
        // kernel instead of mul → reduce → softmax_grad → leakyrelu_grad.
        T::fused_softmax_grad(ops, g, &state.alpha, &dalpha, &state.e, ATTN_SLOPE, d)
    } else {
        let prod = T::mul(ops, g, &state.alpha, &dalpha);
        let t = T::edge_reduce(ops, g, &prod, Reduce::Sum, d);
        let de_soft = T::softmax_grad(ops, g, &state.alpha, &dalpha, &t);
        // LeakyReLU gate: sign(post) == sign(pre) for slope > 0, so the
        // saved post-activation suffices.
        T::leakyrelu_grad(ops, g, &state.e, &de_soft, ATTN_SLOPE)
    };
    // δs_dst[i] = Σ_j δe_ij ; δs_src[j] = Σ_i δe_ij (reduce on Âᵀ).
    let ds_dst = T::edge_reduce(ops, g, &de, Reduce::Sum, d);
    let de_t = g.permute_to_transpose(&de);
    let ds_src = T::edge_reduce(ops, g, &de_t, Reduce::Sum, d);
    // δz = δz_agg + δs_dst ⊗ a_dst + δs_src ⊗ a_src.
    let outer_dst = T::gemm(ops, &ds_dst, false, a_dst, true, n, 1, f_out);
    let outer_src = T::gemm(ops, &ds_src, false, a_src, true, n, 1, f_out);
    let one = T::ONE;
    let tmp = T::scale_add(ops, one, &dz_agg, one, &outer_dst);
    let dz = T::scale_add(ops, one, &tmp, one, &outer_src);
    // Parameter and input gradients (vertex contractions → all-reduced
    // when sharded).
    let da_dst = T::grad_gemm(ops, &state.z, &ds_dst, f_out, n, 1, d);
    let da_src = T::grad_gemm(ops, &state.z, &ds_src, f_out, n, 1, d);
    let dw = T::grad_gemm(ops, x, &dz, f_in, n, f_out, d);
    let dx = T::gemm(ops, &dz, false, w, true, n, f_out, f_in);
    (dx, dw, da_src, da_dst)
}

/// One forward pass: the step's weight casts and both layers' saved
/// state, plus the logits.
pub struct Forward<'a, T: Elem> {
    w: [Cow<'a, [T]>; 6],
    l1: LayerState<T>,
    out1: Vec<T>,
    h1: Vec<T>,
    l2: LayerState<T>,
    /// Logits, row-major `n × classes`, in f32.
    pub logits: Vec<f32>,
}

/// Forward pass: two attention layers with a ReLU between.
pub fn forward<'a, T: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &'a GatParams,
    x: &[T],
    d: Dispatch<'_>,
) -> Forward<'a, T> {
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let w = [&p.w1, &p.a_src1, &p.a_dst1, &p.w2, &p.a_src2, &p.a_dst2].map(|t| T::weight(ops, t));
    let [w1, a_src1, a_dst1, w2, a_src2, a_dst2] = &w;

    let layer1 = site("gat.layer1");
    let (l1, out1) = layer_forward(ops, g, x, w1, a_src1, a_dst1, f_in, h, d);
    let h1 = T::relu(ops, &out1);
    drop(layer1);
    let layer2 = site("gat.layer2");
    let (l2, out2) = layer_forward(ops, g, &h1, w2, a_src2, a_dst2, h, c, d);
    drop(layer2);
    let logits = T::logits(ops, out2);
    Forward { w, l1, out1, h1, l2, logits }
}

/// One training step: [`forward`], loss, backward.
pub fn step<T: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &GatParams,
    x: &[T],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
) -> StepOutput<GatGrads> {
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let fwd = forward(ops, g, p, x, d);
    let [w1, a_src1, a_dst1, w2, a_src2, a_dst2] = &fwd.w;
    let (loss, dlogits, _) = ops.softmax_xent_f32(&fwd.logits, labels, mask, c);
    let dout = T::loss_grad(ops, dlogits);

    let bwd2 = site("gat.layer2.backward");
    let (dh1, dw2, da_src2, da_dst2) =
        layer_backward(ops, g, &fwd.l2, &fwd.h1, w2, a_src2, a_dst2, &dout, h, c, d);
    drop(bwd2);
    let _bwd1 = site("gat.layer1.backward");
    let dl1 = T::relu_grad(ops, &fwd.out1, &dh1);
    let (_, dw1, da_src1, da_dst1) =
        layer_backward(ops, g, &fwd.l1, x, w1, a_src1, a_dst1, &dl1, f_in, h, d);

    let grads = [dw1, da_src1, da_dst1, dw2, da_src2, da_dst2].map(|g| T::master_grad(ops, g));
    let [w1, a_src1, a_dst1, w2, a_src2, a_dst2] = T::unscale(ops, grads);
    let grads = GatGrads { w1, a_src1, a_dst1, w2, a_src2, a_dst2 };
    StepOutput { loss, grads, logits: fwd.logits }
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
        p: &GatParams,
        x: &[f32],
        labels: &[u32],
        mask: &[bool],
    ) -> StepOutput<GatGrads> {
        step(ops, g, p, x, labels, mask, Dispatch::untuned(PrecisionMode::Float))
    }

    fn toy() -> (GraphView, Vec<f32>, Vec<u32>, Vec<bool>) {
        let (edges, labels) = gen::sbm(&[15, 15], 0.4, 0.03, 4);
        let csr = Csr::from_edges(30, 30, &edges).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x = halfgnn_graph::features::class_features(&labels, 2, 8, 1.0, 0.2, 7);
        (g, x, labels, vec![true; 30])
    }

    #[test]
    fn f32_gradients_match_finite_differences() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let mut p = GatParams::new(8, 6, 2, 11);
        let mut ops = Ops::new(&dev);
        let out = float_step(&mut ops, &g, &p, &x, &labels, &mask);
        let eps = 1e-3;

        // W1 coordinates (checks the full attention backward chain).
        for &idx in &[0usize, 9, 21] {
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.w1[idx] = orig - eps;
            let lm = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.w1[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w1[idx]).abs() < 2e-2 + 0.1 * fd.abs(),
                "w1[{idx}]: fd {fd} vs {}",
                out.grads.w1[idx]
            );
        }
        // Attention vector coordinates (the softmax backward path).
        for &idx in &[0usize, 3] {
            let orig = p.a_src1[idx];
            p.a_src1[idx] = orig + eps;
            let lp = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.a_src1[idx] = orig - eps;
            let lm = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.a_src1[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.a_src1[idx]).abs() < 2e-2 + 0.1 * fd.abs(),
                "a_src1[{idx}]: fd {fd} vs {}",
                out.grads.a_src1[idx]
            );
        }
    }

    #[test]
    fn half_step_tracks_f32() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let p = GatParams::new(8, 6, 2, 11);
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        let mut ops = Ops::new(&dev);
        let f = float_step(&mut ops, &g, &p, &x, &labels, &mask);
        let hh = step(&mut ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfGnn.into());
        assert!((f.loss - hh.loss).abs() < 0.08, "{} vs {}", f.loss, hh.loss);
        assert!(hh.loss.is_finite());
    }

    #[test]
    fn fused_dispatch_tracks_unfused_and_launches_fewer_kernels() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let p = GatParams::new(8, 6, 2, 11);
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        let mut unfused_ops = Ops::new(&dev);
        let a = step(&mut unfused_ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfGnn.into());
        let mut fused_ops = Ops::new(&dev);
        let d = Dispatch::untuned(PrecisionMode::HalfGnn).with_fusion(true);
        let b = step(&mut fused_ops, &g, &p, &xh, &labels, &mask, d);
        assert!((a.loss - b.loss).abs() < 0.05, "{} vs {}", a.loss, b.loss);
        assert!(b.loss.is_finite());
        assert!(
            fused_ops.kernel_count() < unfused_ops.kernel_count(),
            "fused {} launches must undercut unfused {}",
            fused_ops.kernel_count(),
            unfused_ops.kernel_count()
        );
    }

    #[test]
    fn baseline_mode_never_fuses() {
        let (g, ..) = toy();
        let d = Dispatch::untuned(PrecisionMode::HalfNaive).with_fusion(true);
        assert!(!d.attn_fused(&g, 6), "HalfNaive must stay on the DGL chain");
        let d = Dispatch::untuned(PrecisionMode::HalfGnn);
        assert!(!d.attn_fused(&g, 6), "untuned, unforced dispatch must stay unfused");
        let d = Dispatch::untuned(PrecisionMode::HalfGnn).with_fusion(true);
        assert!(!d.attn_fused(&g, 7), "odd f cannot run the half2-padded fused kernel");
        assert!(d.attn_fused(&g, 6));
    }

    #[test]
    fn shadow_mode_converts_less_than_amp_mode() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let p = GatParams::new(8, 6, 2, 11);
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        let mut shadow_ops = Ops::new(&dev);
        step(&mut shadow_ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfGnn.into());
        let mut amp_ops = Ops::new(&dev);
        step(&mut amp_ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfNaive.into());
        assert!(
            amp_ops.converted_elems > shadow_ops.converted_elems,
            "AMP {} should convert more than shadow {}",
            amp_ops.converted_elems,
            shadow_ops.converted_elems
        );
    }
}
