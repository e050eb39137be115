//! GIN (Xu et al.).
//!
//! Per layer: `h' = σ(((1+ε)·x + agg(x)) · W + b)` with ε = 0 fixed.
//!
//! * The float and naive-half baselines use DGL's **'mean'** reduction
//!   variant the paper discusses in §3.1.3: "the degree-norm is called
//!   after SpMM for forward computation. Consequently, this version of GIN
//!   is susceptible to the same overflow issue as GCN" — which is exactly
//!   what the naive-half path reproduces (post-scaled mean overflows
//!   during the reduction).
//! * HalfGNN aggregation is the paper's Eq. 4: `(1+ε)·x + λ·mean(x)` with
//!   the non-learnable λ = 0.1 that protects the *combine* addition too
//!   (§5.2.2 "Additional Overflow in GIN"), on top of the discretized
//!   (overflow-free) mean.

use crate::elem::Elem;
use crate::gcn::StepOutput;
use crate::graphdata::GraphView;
use crate::models::{Dispatch, PrecisionMode};
use crate::params::{TwoLayerGrads, TwoLayerParams};
use halfgnn_half::overflow::site;
use halfgnn_tensor::Ops;
use std::borrow::Cow;

/// The paper's λ (Eq. 4), validated as "worked fine for all our robust
/// testing".
pub const GIN_LAMBDA: f32 = 0.1;

/// ε in the GIN combine (fixed, non-learnable here).
pub const GIN_EPS: f32 = 0.0;

/// One forward pass: the step's casts and saved activations, plus the
/// logits.
pub struct Forward<'a, T: Elem> {
    one_eps: T,
    agg_scale: T,
    w2: Cow<'a, [T]>,
    comb1: Vec<T>,
    z1: Vec<T>,
    comb2: Vec<T>,
    /// Logits, row-major `n × classes`, in f32.
    pub logits: Vec<f32>,
}

/// Forward pass. `HalfNaive` runs the overflowing DGL-mean variant;
/// HalfGNN modes scale the aggregation by `lambda` (Eq. 4); float and
/// I8 use λ = 1.
pub fn forward<'a, T: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &'a TwoLayerParams,
    x: &[T],
    d: Dispatch<'_>,
    lambda: f32,
) -> Forward<'a, T> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let one_eps = T::scalar(1.0 + GIN_EPS);
    let protected = matches!(d.mode, PrecisionMode::HalfGnn | PrecisionMode::HalfGnnNoDiscretize);
    let agg_scale = if protected { T::scalar(lambda) } else { T::ONE };

    let w1 = T::weight(ops, &p.w1);
    let b1 = T::weight(ops, &p.b1);
    let w2 = T::weight(ops, &p.w2);
    let b2 = T::weight(ops, &p.b2);

    // Both the naive and protected paths run DGL's 'mean' GIN; the naive
    // kernel applies the degree norm post-reduction, so hub rows have
    // already overflowed by the time it runs.
    let layer1 = site("gin.layer1");
    let agg1 = T::spmm_mean(ops, g, x, f_in, d);
    let comb1 = T::scale_add(ops, one_eps, x, agg_scale, &agg1);
    let z1 = T::gemm(ops, &comb1, false, &w1, false, n, f_in, h);
    let z1 = T::bias_add(ops, &z1, &b1);
    let h1 = T::relu(ops, &z1);
    drop(layer1);
    let layer2 = site("gin.layer2");
    let agg2 = T::spmm_mean(ops, g, &h1, h, d);
    let comb2 = T::scale_add(ops, one_eps, &h1, agg_scale, &agg2);
    let z2 = T::gemm(ops, &comb2, false, &w2, false, n, h, c);
    let out = T::bias_add(ops, &z2, &b2);
    drop(layer2);
    let logits = T::logits(ops, out);
    Forward { one_eps, agg_scale, w2, comb1, z1, comb2, logits }
}

/// One training step: [`forward`], loss, backward.
#[allow(clippy::too_many_arguments)]
pub fn step<T: Elem>(
    ops: &mut Ops,
    g: &GraphView,
    p: &TwoLayerParams,
    x: &[T],
    labels: &[u32],
    mask: &[bool],
    d: Dispatch<'_>,
    lambda: f32,
) -> StepOutput<TwoLayerGrads> {
    let n = g.n();
    let (f_in, h, c) = (p.f_in, p.hidden, p.classes);
    let fwd = forward(ops, g, p, x, d, lambda);
    let (loss, dlogits, _) = ops.softmax_xent_f32(&fwd.logits, labels, mask, c);

    let _bwd = site("gin.backward");
    let dout = T::loss_grad(ops, dlogits);
    let dw2 = T::grad_gemm(ops, &fwd.comb2, &dout, h, n, c, d);
    let db2 = T::grad_colsum(ops, &dout, c, d);
    let dcomb2 = T::gemm(ops, &dout, false, &fwd.w2, true, n, c, h);
    // comb2 = (1+ε)h1 + s·mean(h1)  ⇒  δh1 = (1+ε)δcomb2 + s·Âᵀ(δcomb2/deg).
    let scaled2 = T::row_scale(ops, &dcomb2, T::mean_scale(g), h);
    let back2 = T::spmm_sum(ops, g, &scaled2, h, d);
    let dh1 = T::scale_add(ops, fwd.one_eps, &dcomb2, fwd.agg_scale, &back2);
    let dz1 = T::relu_grad(ops, &fwd.z1, &dh1);
    let dw1 = T::grad_gemm(ops, &fwd.comb1, &dz1, f_in, n, h, d);
    let db1 = T::grad_colsum(ops, &dz1, h, d);

    let [w1, w2] = [dw1, dw2].map(|g| T::master_grad(ops, g));
    let [w1, w2, b1, b2] = T::unscale(ops, [w1, w2, db1, db2]);
    StepOutput { loss, grads: TwoLayerGrads { w1, b1, w2, b2 }, logits: fwd.logits }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        step(ops, g, p, x, labels, mask, Dispatch::untuned(PrecisionMode::Float), GIN_LAMBDA)
    }

    fn toy() -> (GraphView, Vec<f32>, Vec<u32>, Vec<bool>) {
        let (edges, labels) = gen::sbm(&[20, 20], 0.4, 0.02, 9);
        let csr = Csr::from_edges(40, 40, &edges).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x = halfgnn_graph::features::class_features(&labels, 2, 8, 1.0, 0.2, 6);
        (g, x, labels, vec![true; 40])
    }

    #[test]
    fn f32_gradients_match_finite_differences() {
        let dev = DeviceConfig::a100_like();
        let (g, x, labels, mask) = toy();
        let mut p = TwoLayerParams::new(8, 6, 2, 2);
        let mut ops = Ops::new(&dev);
        let out = float_step(&mut ops, &g, &p, &x, &labels, &mask);
        let eps = 1e-3;
        for &idx in &[0usize, 11, 30] {
            let orig = p.w1[idx];
            p.w1[idx] = orig + eps;
            let lp = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.w1[idx] = orig - eps;
            let lm = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.w1[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grads.w1[idx]).abs() < 1e-2 + 0.05 * fd.abs(),
                "w1[{idx}]: fd {fd} vs {}",
                out.grads.w1[idx]
            );
        }
        for &idx in &[1usize, 8] {
            let orig = p.b1[idx % p.b1.len()];
            let j = idx % p.b1.len();
            p.b1[j] = orig + eps;
            let lp = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.b1[j] = orig - eps;
            let lm = float_step(&mut ops, &g, &p, &x, &labels, &mask).loss;
            p.b1[j] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            // Relative slack absorbs ReLU-kink noise in the central
            // difference.
            assert!(
                (fd - out.grads.b1[j]).abs() < 1e-2 + 0.1 * fd.abs(),
                "b1[{j}]: fd {fd} vs {}",
                out.grads.b1[j]
            );
        }
    }

    #[test]
    fn naive_half_overflows_on_a_hub_graph_halfgnn_does_not() {
        // A star hub with large positive features: Eq. 3's sum overflows in
        // half, Eq. 4's λ-scaled mean stays finite.
        let dev = DeviceConfig::a100_like();
        let n = 900;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|c| (0, c)).collect();
        edges.extend((1..n as u32 - 1).map(|v| (v, v + 1)));
        let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
        let g = GraphView::full(&csr);
        let x = vec![80.0f32; n * 4];
        let xh: Vec<Half> = x.iter().map(|&v| Half::from_f32(v)).collect();
        let labels = vec![0u32; n];
        let mask = vec![true; n];
        let p = TwoLayerParams::new(4, 6, 2, 3);

        let mut ops = Ops::new(&dev);
        let naive = step(
            &mut ops,
            &g,
            &p,
            &xh,
            &labels,
            &mask,
            PrecisionMode::HalfNaive.into(),
            GIN_LAMBDA,
        );
        assert!(naive.loss.is_nan(), "naive GIN should NaN, got {}", naive.loss);

        let ours =
            step(&mut ops, &g, &p, &xh, &labels, &mask, PrecisionMode::HalfGnn.into(), GIN_LAMBDA);
        assert!(ours.loss.is_finite(), "HalfGNN GIN must stay finite, got {}", ours.loss);
    }
}
