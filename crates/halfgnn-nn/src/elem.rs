//! The state-tensor element type: one trait over `f32` and [`Half`], so
//! each architecture is written once and instantiated per precision.
//!
//! The paper's recipe keeps *state tensors* (features, activations, edge
//! tensors) in the run's precision and *master weights*, the loss and the
//! optimizer in f32 (Micikevicius et al.). [`Elem`] owns the boundary
//! between the two — the per-step weight casts, the loss-gradient scaling
//! and cast, and the conversion and unscaling of master gradients — and
//! routes every dense and sparse op to its per-precision kernels: dense
//! ops to [`Ops`], sparse ops through the [`Dispatch`] layer of
//! [`crate::models`] (plan resolution, sharding, capture). For `f32` the
//! boundary is the identity: no cast, no scaling, no unscaling.
//!
//! Dispatch is static: each model's `forward`/`step` is generic over
//! `T: Elem`, and the trainer picks `T` once per run.
//!
//! When a [`crate::dist::DistCtx`] is attached, the sparse ops shard:
//! row- and edge-parallel kernels run per-shard windows after a metered
//! halo exchange of their column-indexed operand and paste the windows
//! back (bitwise slices of the full launch). Weight gradients contract
//! activations over the vertex dimension, so a sharded device only ever
//! holds the row slice it owns: the full gradient is the all-reduce of
//! per-shard partials. Half modes move the partials over the f16 wire
//! with discretized per-bucket scaling (overflow-free by construction);
//! float mode's reduction is the exact global GEMM the single-device step
//! computes, so only the f32 wire cost is charged and sharded float
//! training stays bit-identical.

use crate::dist::DistCtx;
use crate::graphdata::GraphView;
use crate::models::{
    launch, sddmm_half_window, spmm_half_window, Dispatch, GcnNorm, PrecisionMode, Span,
};
use halfgnn_exec::{buf_ref, BufRef};
use halfgnn_graph::partition::Shard;
use halfgnn_half::slice::{f32_slice_to_half, pad_feature_len};
use halfgnn_half::Half;
use halfgnn_kernels::baseline::cusparse::{self, EdgeWeightsF32};
use halfgnn_kernels::baseline::{dgl_sddmm, ge_spmm};
use halfgnn_kernels::common::{EdgeWeights, Reduce};
use halfgnn_kernels::fused::{self, FusedAttnForward};
use halfgnn_kernels::{edge_ops, halfgnn_spmm};
use halfgnn_sim::{DeviceConfig, KernelStats};
use halfgnn_tensor::Ops;
use halfgnn_tune::SpmmVariant;
use std::borrow::Cow;

/// Element type of a run's state tensors.
pub trait Elem: Copy + Send + Sync + 'static {
    /// The multiplicative identity, as a `scale_add` coefficient.
    const ONE: Self;

    /// A host scalar in this precision.
    fn scalar(v: f32) -> Self;
    /// A tensor width padded to this precision's vector layout (§4.1.2:
    /// half2 kernels need even widths).
    fn padded(width: usize) -> usize;
    /// The input feature matrix in this precision (host-side, uncharged).
    fn features(x: &[f32]) -> Vec<Self>;

    // ---- AMP boundary.

    /// Cast a master weight for the step (f32: borrowed as is).
    fn weight<'a>(ops: &mut Ops, w: &'a [f32]) -> Cow<'a, [Self]>;
    /// Promote the network output to the f32 logits the loss reads.
    fn logits(ops: &mut Ops, out: Vec<Self>) -> Vec<f32>;
    /// Scale the loss gradient by `ops.loss_scale` and cast it for the
    /// backward pass, so small per-vertex gradients survive the f2h cast.
    fn loss_grad(ops: &mut Ops, dlogits: Vec<f32>) -> Vec<Self>;
    /// Return a weight gradient to the f32 master domain.
    fn master_grad(ops: &mut Ops, g: Vec<Self>) -> Vec<f32>;
    /// Divide the loss scale back out of master gradients, in order.
    fn unscale<const N: usize>(ops: &mut Ops, grads: [Vec<f32>; N]) -> [Vec<f32>; N];

    // ---- Dense ops.

    /// `op(A)[m×k] · op(B)[k×n]`.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        ops: &mut Ops,
        a: &[Self],
        ta: bool,
        b: &[Self],
        tb: bool,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<Self>;
    /// Row-broadcast bias add.
    fn bias_add(ops: &mut Ops, x: &[Self], bias: &[Self]) -> Vec<Self>;
    /// ReLU.
    fn relu(ops: &mut Ops, x: &[Self]) -> Vec<Self>;
    /// ReLU backward gated on the saved pre-activation.
    fn relu_grad(ops: &mut Ops, x: &[Self], dy: &[Self]) -> Vec<Self>;
    /// `a·x + b·y`.
    fn scale_add(ops: &mut Ops, a: Self, x: &[Self], b: Self, y: &[Self]) -> Vec<Self>;
    /// Per-row scaling of an `n × f` tensor.
    fn row_scale(ops: &mut Ops, x: &[Self], scale: &[Self], f: usize) -> Vec<Self>;
    /// Gather feature rows `ids` out of an `_ × f` matrix (charged).
    fn gather_rows(ops: &mut Ops, x: &[Self], f: usize, ids: &[u32]) -> Vec<Self>;

    // ---- Sparse ops.

    /// `1/deg` per row.
    fn mean_scale(g: &GraphView) -> &[Self];
    /// `1/sqrt(deg)` per row (GCN `both` norm).
    fn inv_sqrt_scale(g: &GraphView) -> &[Self];
    /// SpMM: unit (`None`) or per-edge weights `w`, optional per-row
    /// output scale, under the mode's kernel system.
    fn spmm(
        ops: &mut Ops,
        g: &GraphView,
        w: Option<&[Self]>,
        x: &[Self],
        f: usize,
        row_scale: Option<&[Self]>,
        d: Dispatch,
    ) -> Vec<Self>;
    /// Adjoint of [`Elem::gcn_agg`] on a symmetric Â.
    fn gcn_agg_backward(
        ops: &mut Ops,
        g: &GraphView,
        dy: &[Self],
        f: usize,
        norm: GcnNorm,
        d: Dispatch,
    ) -> Vec<Self>;
    /// SDDMM. `u` is row-indexed (shard-local); `v` is column-indexed, so
    /// sharded runs halo-exchange it before each per-shard edge window.
    fn sddmm(
        ops: &mut Ops,
        g: &GraphView,
        u: &[Self],
        v: &[Self],
        f: usize,
        d: Dispatch,
    ) -> Vec<Self>;
    /// Per-row reduction of an edge tensor. Edge weights are partitioned
    /// with the rows that own them, so sharded runs need no halo.
    fn edge_reduce(ops: &mut Ops, g: &GraphView, w: &[Self], op: Reduce, d: Dispatch) -> Vec<Self>;
    /// Vertex-contracted weight gradient `AᵀB` with `A: n×m`, `B: n×c`
    /// (both row-major over vertices), producing the `m×c` gradient.
    #[allow(clippy::too_many_arguments)]
    fn grad_gemm(
        ops: &mut Ops,
        a: &[Self],
        b: &[Self],
        m: usize,
        n: usize,
        c: usize,
        d: Dispatch,
    ) -> Vec<Self>;
    /// Bias gradient (column sum over vertices), in f32.
    fn grad_colsum(ops: &mut Ops, x: &[Self], c: usize, d: Dispatch) -> Vec<f32>;

    /// SpMMv with mean (right degree-norm) aggregation.
    fn spmm_mean(ops: &mut Ops, g: &GraphView, x: &[Self], f: usize, d: Dispatch) -> Vec<Self> {
        Self::spmm(ops, g, None, x, f, Some(Self::mean_scale(g)), d)
    }
    /// SpMMv, plain sum.
    fn spmm_sum(ops: &mut Ops, g: &GraphView, x: &[Self], f: usize, d: Dispatch) -> Vec<Self> {
        Self::spmm(ops, g, None, x, f, None, d)
    }
    /// SpMMve (weighted sum — GAT's attention aggregation; the attention
    /// weights are normalized, so no degree scaling is needed).
    fn spmmve(
        ops: &mut Ops,
        g: &GraphView,
        w: &[Self],
        x: &[Self],
        f: usize,
        d: Dispatch,
    ) -> Vec<Self> {
        Self::spmm(ops, g, Some(w), x, f, None, d)
    }
    /// GCN aggregation under `norm` (Â is symmetric).
    fn gcn_agg(
        ops: &mut Ops,
        g: &GraphView,
        x: &[Self],
        f: usize,
        norm: GcnNorm,
        d: Dispatch,
    ) -> Vec<Self> {
        match norm {
            GcnNorm::Right => Self::spmm_mean(ops, g, x, f, d),
            GcnNorm::Left => {
                let scaled = Self::row_scale(ops, x, Self::mean_scale(g), f);
                Self::spmm_sum(ops, g, &scaled, f, d)
            }
            GcnNorm::Both => {
                let scaled = Self::row_scale(ops, x, Self::inv_sqrt_scale(g), f);
                Self::spmm(ops, g, None, &scaled, f, Some(Self::inv_sqrt_scale(g)), d)
            }
        }
    }

    // ---- Edge-level attention ops: replicated on every device and never
    // windowed; their operands already ride along with the feature halos.

    /// `e_ij ← LeakyReLU(s_dst[i] + s_src[j])`.
    fn attn_logits(
        ops: &mut Ops,
        g: &GraphView,
        s_dst: &[Self],
        s_src: &[Self],
        slope: f32,
    ) -> Vec<Self>;
    /// `exp(e − m[row])`.
    fn sub_row_exp(ops: &mut Ops, g: &GraphView, e: &[Self], m: &[Self], d: Dispatch) -> Vec<Self>;
    /// `e / z[row]`.
    fn div_row(ops: &mut Ops, g: &GraphView, e: &[Self], z: &[Self]) -> Vec<Self>;
    /// Elementwise edge product.
    fn mul(ops: &mut Ops, g: &GraphView, a: &[Self], b: &[Self]) -> Vec<Self>;
    /// Edge-softmax backward given the row sums `t`.
    fn softmax_grad(
        ops: &mut Ops,
        g: &GraphView,
        alpha: &[Self],
        dalpha: &[Self],
        t: &[Self],
    ) -> Vec<Self>;
    /// LeakyReLU backward on edge logits.
    fn leakyrelu_grad(
        ops: &mut Ops,
        g: &GraphView,
        e: &[Self],
        de: &[Self],
        slope: f32,
    ) -> Vec<Self>;
    /// Fused attention forward (SDDMM + edge-softmax + SpMM in one pass):
    /// `[e, alpha, out]`. Half only — reached solely where
    /// [`Dispatch::attn_fused`] holds, which it never does for
    /// [`PrecisionMode::Float`].
    #[allow(clippy::too_many_arguments)]
    fn fused_attn_forward(
        _ops: &mut Ops,
        _g: &GraphView,
        _s_dst: &[Self],
        _s_src: &[Self],
        _slope: f32,
        _z: &[Self],
        _f: usize,
        _d: Dispatch,
    ) -> [Vec<Self>; 3] {
        unreachable!("fused attention is half-only")
    }
    /// Fused edge-softmax + LeakyReLU backward (half only, as above).
    #[allow(clippy::too_many_arguments)]
    fn fused_softmax_grad(
        _ops: &mut Ops,
        _g: &GraphView,
        _alpha: &[Self],
        _dalpha: &[Self],
        _e: &[Self],
        _slope: f32,
        _d: Dispatch,
    ) -> Vec<Self> {
        unreachable!("fused attention is half-only")
    }
}

/// Capture inputs of an SpMM launch: the operand, then the edge weights
/// and row scale when present.
fn spmm_inputs<T>(x: &[T], w: Option<&[T]>, row_scale: Option<&[T]>) -> Vec<BufRef> {
    [Some(x), w, row_scale].into_iter().flatten().map(buf_ref).collect()
}

/// Halo exchange of a half operand's remote rows: over the INT8 wire in
/// I8 mode, the f16 wire otherwise.
fn exchange_halo(ops: &mut Ops, ctx: &DistCtx, x: &[Half], f: usize, shard: &Shard, d: Dispatch) {
    if d.mode == PrecisionMode::I8 {
        ctx.exchange_halo_i8(ops, x, f, shard, d.quant_seed);
    } else {
        ctx.exchange_halo_half(ops, x, f, shard);
    }
}

/// Kernels whose operands are all shard-local need no halo exchange.
fn no_halo(_: &mut Ops, _: &DistCtx, _: &Shard) {}

/// Run one edge-level kernel and log its stats.
fn edge<T>(ops: &mut Ops, run: impl FnOnce(&DeviceConfig) -> (T, KernelStats)) -> T {
    let (y, stats) = run(ops.dev);
    ops.record(stats);
    y
}

impl Elem for f32 {
    const ONE: f32 = 1.0;

    fn scalar(v: f32) -> f32 {
        v
    }
    fn padded(width: usize) -> usize {
        width
    }
    fn features(x: &[f32]) -> Vec<f32> {
        x.to_vec()
    }

    fn weight<'a>(_: &mut Ops, w: &'a [f32]) -> Cow<'a, [f32]> {
        Cow::Borrowed(w)
    }
    fn logits(_: &mut Ops, out: Vec<f32>) -> Vec<f32> {
        out
    }
    fn loss_grad(_: &mut Ops, dlogits: Vec<f32>) -> Vec<f32> {
        dlogits
    }
    fn master_grad(_: &mut Ops, g: Vec<f32>) -> Vec<f32> {
        g
    }
    fn unscale<const N: usize>(_: &mut Ops, grads: [Vec<f32>; N]) -> [Vec<f32>; N] {
        grads
    }

    fn gemm(
        ops: &mut Ops,
        a: &[f32],
        ta: bool,
        b: &[f32],
        tb: bool,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        ops.gemm_f32(a, ta, b, tb, m, k, n)
    }
    fn bias_add(ops: &mut Ops, x: &[f32], bias: &[f32]) -> Vec<f32> {
        ops.bias_add_f32(x, bias)
    }
    fn relu(ops: &mut Ops, x: &[f32]) -> Vec<f32> {
        ops.relu_f32(x)
    }
    fn relu_grad(ops: &mut Ops, x: &[f32], dy: &[f32]) -> Vec<f32> {
        ops.relu_grad_f32(x, dy)
    }
    fn scale_add(ops: &mut Ops, a: f32, x: &[f32], b: f32, y: &[f32]) -> Vec<f32> {
        ops.scale_add_f32(a, x, b, y)
    }
    fn row_scale(ops: &mut Ops, x: &[f32], scale: &[f32], f: usize) -> Vec<f32> {
        ops.row_scale_f32(x, scale, f)
    }
    fn gather_rows(ops: &mut Ops, x: &[f32], f: usize, ids: &[u32]) -> Vec<f32> {
        ops.gather_rows_f32(x, f, ids)
    }

    fn mean_scale(g: &GraphView) -> &[f32] {
        &g.mean_scale_f
    }
    fn inv_sqrt_scale(g: &GraphView) -> &[f32] {
        &g.inv_sqrt_scale_f
    }
    fn spmm(
        ops: &mut Ops,
        g: &GraphView,
        w: Option<&[f32]>,
        x: &[f32],
        f: usize,
        row_scale: Option<&[f32]>,
        d: Dispatch,
    ) -> Vec<f32> {
        let ins = spmm_inputs(x, w, row_scale);
        let w = w.map_or(EdgeWeightsF32::Ones, EdgeWeightsF32::Values);
        let halo = |ops: &mut Ops, ctx: &DistCtx, shard: &Shard| {
            ctx.exchange_halo_f32(ops, x, f, shard);
        };
        // The forced vertex-parallel skeleton (serving, one device) runs
        // the GE-SpMM row-per-warp kernel: each row reduces its own
        // neighbors in column order, so output bits are independent of
        // which other rows share the launch. Degree norm becomes a
        // post-reduction row scale, same placement as the cuSPARSE path.
        // (Weighted SpMMve — GAT — keeps the edge-tiled kernel; serving
        // only dispatches unweighted GCN aggregation.)
        let ge = d.dist.is_none() && d.force_spmm == Some(SpmmVariant::VertexParallel);
        let run = |ops: &mut Ops, win| {
            if !(ge && w.is_ones()) {
                return cusparse::spmm_float_window(ops.dev, &g.coo, w, x, f, row_scale, win);
            }
            let (mut y, stats) = ge_spmm::spmm_float(ops.dev, &g.csr, x, f);
            if let Some(scale) = row_scale {
                for (r, &sc) in scale.iter().enumerate() {
                    for v in &mut y[r * f..(r + 1) * f] {
                        *v *= sc;
                    }
                }
            }
            (y, stats)
        };
        launch(ops, g, d, "spmm_f32", &ins, (Span::Rows(f), Span::Rows(f)), 0.0, halo, run)
    }
    fn gcn_agg_backward(
        ops: &mut Ops,
        g: &GraphView,
        dy: &[f32],
        f: usize,
        norm: GcnNorm,
        d: Dispatch,
    ) -> Vec<f32> {
        match norm {
            // (D⁻¹Â)ᵀ = Â D⁻¹: scale first, then sum.
            GcnNorm::Right => {
                let scaled = ops.row_scale_f32(dy, &g.mean_scale_f, f);
                f32::spmm_sum(ops, g, &scaled, f, d)
            }
            // (ÂD⁻¹)ᵀ = D⁻¹Â: sum first, then scale — the §3.1.3 backward trap.
            GcnNorm::Left => {
                let summed = f32::spmm_sum(ops, g, dy, f, d);
                ops.row_scale_f32(&summed, &g.mean_scale_f, f)
            }
            // D^-1/2 Â D^-1/2 is self-adjoint.
            GcnNorm::Both => f32::gcn_agg(ops, g, dy, f, GcnNorm::Both, d),
        }
    }
    /// DGL's float SDDMM.
    fn sddmm(
        ops: &mut Ops,
        g: &GraphView,
        u: &[f32],
        v: &[f32],
        f: usize,
        d: Dispatch,
    ) -> Vec<f32> {
        let halo = |ops: &mut Ops, ctx: &DistCtx, shard: &Shard| {
            ctx.exchange_halo_f32(ops, v, f, shard);
        };
        let ins = [buf_ref(u), buf_ref(v)];
        launch(ops, g, d, "sddmm_f32", &ins, (Span::Edges, Span::Edges), 0.0, halo, |ops, win| {
            dgl_sddmm::sddmm_float_window(ops.dev, &g.coo, u, v, f, win)
        })
    }
    fn edge_reduce(ops: &mut Ops, g: &GraphView, w: &[f32], op: Reduce, d: Dispatch) -> Vec<f32> {
        let rows = (Span::Rows(1), Span::Rows(1));
        launch(ops, g, d, "edge_reduce_f32", &[buf_ref(w)], rows, 0.0, no_halo, |ops, win| {
            edge_ops::edge_reduce_f32_window(ops.dev, &g.coo, w, op, win)
        })
    }
    /// The exact global contraction; only the all-reduce wire traffic is
    /// charged when sharded.
    fn grad_gemm(
        ops: &mut Ops,
        a: &[f32],
        b: &[f32],
        m: usize,
        n: usize,
        c: usize,
        d: Dispatch,
    ) -> Vec<f32> {
        let y = ops.gemm_f32(a, true, b, false, m, n, c);
        if let Some(ctx) = d.dist {
            ctx.charge_allreduce_f32(y.len());
        }
        y
    }
    /// Exact value; wire cost charged when sharded.
    fn grad_colsum(ops: &mut Ops, x: &[f32], c: usize, d: Dispatch) -> Vec<f32> {
        let y = ops.colsum_f32(x, c);
        if let Some(ctx) = d.dist {
            ctx.charge_allreduce_f32(y.len());
        }
        y
    }

    fn attn_logits(
        ops: &mut Ops,
        g: &GraphView,
        s_dst: &[f32],
        s_src: &[f32],
        slope: f32,
    ) -> Vec<f32> {
        edge(ops, |dev| edge_ops::src_dst_add_leakyrelu_f32(dev, &g.coo, s_dst, s_src, slope))
    }
    fn sub_row_exp(ops: &mut Ops, g: &GraphView, e: &[f32], m: &[f32], _: Dispatch) -> Vec<f32> {
        edge(ops, |dev| edge_ops::sub_row_exp_f32(dev, &g.coo, e, m))
    }
    fn div_row(ops: &mut Ops, g: &GraphView, e: &[f32], z: &[f32]) -> Vec<f32> {
        edge(ops, |dev| edge_ops::div_row_f32(dev, &g.coo, e, z))
    }
    fn mul(ops: &mut Ops, g: &GraphView, a: &[f32], b: &[f32]) -> Vec<f32> {
        edge(ops, |dev| edge_ops::mul_f32(dev, &g.coo, a, b))
    }
    fn softmax_grad(
        ops: &mut Ops,
        g: &GraphView,
        alpha: &[f32],
        dalpha: &[f32],
        t: &[f32],
    ) -> Vec<f32> {
        edge(ops, |dev| edge_ops::softmax_grad_f32(dev, &g.coo, alpha, dalpha, t))
    }
    fn leakyrelu_grad(ops: &mut Ops, g: &GraphView, e: &[f32], de: &[f32], slope: f32) -> Vec<f32> {
        edge(ops, |dev| edge_ops::leakyrelu_grad_f32(dev, &g.coo, e, de, slope))
    }
}

impl Elem for Half {
    const ONE: Half = Half::ONE;

    fn scalar(v: f32) -> Half {
        Half::from_f32(v)
    }
    fn padded(width: usize) -> usize {
        pad_feature_len(width, 2)
    }
    fn features(x: &[f32]) -> Vec<Half> {
        f32_slice_to_half(x)
    }

    fn weight<'a>(ops: &mut Ops, w: &'a [f32]) -> Cow<'a, [Half]> {
        Cow::Owned(ops.to_half(w))
    }
    fn logits(ops: &mut Ops, out: Vec<Half>) -> Vec<f32> {
        ops.to_f32(&out)
    }
    fn loss_grad(ops: &mut Ops, mut dlogits: Vec<f32>) -> Vec<Half> {
        let loss_scale = ops.loss_scale;
        if loss_scale != 1.0 {
            for g in dlogits.iter_mut() {
                *g *= loss_scale;
            }
        }
        ops.to_half(&dlogits)
    }
    fn master_grad(ops: &mut Ops, g: Vec<Half>) -> Vec<f32> {
        ops.to_f32(&g)
    }
    fn unscale<const N: usize>(ops: &mut Ops, mut grads: [Vec<f32>; N]) -> [Vec<f32>; N] {
        for g in &mut grads {
            ops.unscale_grad(g);
        }
        grads
    }

    fn gemm(
        ops: &mut Ops,
        a: &[Half],
        ta: bool,
        b: &[Half],
        tb: bool,
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<Half> {
        ops.gemm_half(a, ta, b, tb, m, k, n)
    }
    fn bias_add(ops: &mut Ops, x: &[Half], bias: &[Half]) -> Vec<Half> {
        ops.bias_add_half(x, bias)
    }
    fn relu(ops: &mut Ops, x: &[Half]) -> Vec<Half> {
        ops.relu_half(x)
    }
    fn relu_grad(ops: &mut Ops, x: &[Half], dy: &[Half]) -> Vec<Half> {
        ops.relu_grad_half(x, dy)
    }
    fn scale_add(ops: &mut Ops, a: Half, x: &[Half], b: Half, y: &[Half]) -> Vec<Half> {
        ops.scale_add_half(a, x, b, y)
    }
    fn row_scale(ops: &mut Ops, x: &[Half], scale: &[Half], f: usize) -> Vec<Half> {
        ops.row_scale_half(x, scale, f)
    }
    fn gather_rows(ops: &mut Ops, x: &[Half], f: usize, ids: &[u32]) -> Vec<Half> {
        ops.gather_rows_half(x, f, ids)
    }

    fn mean_scale(g: &GraphView) -> &[Half] {
        &g.mean_scale_h
    }
    fn inv_sqrt_scale(g: &GraphView) -> &[Half] {
        &g.inv_sqrt_scale_h
    }
    fn spmm(
        ops: &mut Ops,
        g: &GraphView,
        w: Option<&[Half]>,
        x: &[Half],
        f: usize,
        row_scale: Option<&[Half]>,
        d: Dispatch,
    ) -> Vec<Half> {
        let ins = spmm_inputs(x, w, row_scale);
        let w = w.map_or(EdgeWeights::Ones, EdgeWeights::Values);
        let halo =
            |ops: &mut Ops, ctx: &DistCtx, shard: &Shard| exchange_halo(ops, ctx, x, f, shard, d);
        let spans = (Span::Rows(f), Span::Rows(f));
        launch(ops, g, d, "spmm_half", &ins, spans, Half::ZERO, halo, |ops, win| {
            spmm_half_window(ops, g, w, x, f, row_scale, d, win)
        })
    }
    /// The `Left` adjoint applies the degree norm *after* the reduction —
    /// under the naive kernels this is where the backward pass overflows
    /// even though the forward was safe (§3.1.3); HalfGNN's discretized
    /// mean is safe on both sides.
    fn gcn_agg_backward(
        ops: &mut Ops,
        g: &GraphView,
        dy: &[Half],
        f: usize,
        norm: GcnNorm,
        d: Dispatch,
    ) -> Vec<Half> {
        match norm {
            GcnNorm::Right => {
                let scaled = ops.row_scale_half(dy, &g.mean_scale_h, f);
                Half::spmm_sum(ops, g, &scaled, f, d)
            }
            // D⁻¹Â δy is exactly a mean aggregation of δy: the naive path
            // runs sum-then-post-scale (overflow), HalfGNN discretizes it.
            GcnNorm::Left => Half::spmm_mean(ops, g, dy, f, d),
            GcnNorm::Both => Half::gcn_agg(ops, g, dy, f, GcnNorm::Both, d),
        }
    }
    /// DGL's naive kernel or HalfGNN's vector-width design, with the plan
    /// resolved by the tuner when one is attached and by the paper's
    /// widest-legal-width rule otherwise.
    fn sddmm(
        ops: &mut Ops,
        g: &GraphView,
        u: &[Half],
        v: &[Half],
        f: usize,
        d: Dispatch,
    ) -> Vec<Half> {
        let halo =
            |ops: &mut Ops, ctx: &DistCtx, shard: &Shard| exchange_halo(ops, ctx, v, f, shard, d);
        let (ins, edges) = ([buf_ref(u), buf_ref(v)], (Span::Edges, Span::Edges));
        launch(ops, g, d, "sddmm_half", &ins, edges, Half::ZERO, halo, |ops, win| {
            sddmm_half_window(ops, g, u, v, f, d, win)
        })
    }
    fn edge_reduce(ops: &mut Ops, g: &GraphView, w: &[Half], op: Reduce, d: Dispatch) -> Vec<Half> {
        let rows = (Span::Rows(1), Span::Rows(1));
        launch(
            ops,
            g,
            d,
            "edge_reduce_half",
            &[buf_ref(w)],
            rows,
            Half::ZERO,
            no_halo,
            |ops, win| halfgnn_spmm::edge_reduce_window(ops.dev, &g.coo, w, op, win),
        )
    }
    /// Per-shard partial contractions, all-reduced over the f16 (or INT8)
    /// wire when sharded.
    fn grad_gemm(
        ops: &mut Ops,
        a: &[Half],
        b: &[Half],
        m: usize,
        n: usize,
        c: usize,
        d: Dispatch,
    ) -> Vec<Half> {
        match d.dist {
            None => ops.gemm_half(a, true, b, false, m, n, c),
            Some(ctx) => {
                let partials: Vec<Vec<Half>> = ctx
                    .plan
                    .shards
                    .iter()
                    .map(|s| {
                        let (r0, r1) = s.row_range;
                        ops.gemm_half(
                            &a[r0 * m..r1 * m],
                            true,
                            &b[r0 * c..r1 * c],
                            false,
                            m,
                            r1 - r0,
                            c,
                        )
                    })
                    .collect();
                if d.mode == PrecisionMode::I8 {
                    ctx.allreduce_grad_i8(ops, &partials, d.quant_seed)
                } else {
                    ctx.allreduce_grad_half(ops, &partials)
                }
            }
        }
    }
    /// All-reduced over the f16 (or INT8) wire when sharded.
    fn grad_colsum(ops: &mut Ops, x: &[Half], c: usize, d: Dispatch) -> Vec<f32> {
        match d.dist {
            None => ops.colsum_half(x, c),
            Some(ctx) => {
                let partials: Vec<Vec<f32>> = ctx
                    .plan
                    .shards
                    .iter()
                    .map(|s| {
                        let (r0, r1) = s.row_range;
                        ops.colsum_half(&x[r0 * c..r1 * c], c)
                    })
                    .collect();
                if d.mode == PrecisionMode::I8 {
                    ctx.allreduce_f32_on_i8_wire(ops, &partials, d.quant_seed)
                } else {
                    ctx.allreduce_f32_on_f16_wire(ops, &partials)
                }
            }
        }
    }

    fn attn_logits(
        ops: &mut Ops,
        g: &GraphView,
        s_dst: &[Half],
        s_src: &[Half],
        slope: f32,
    ) -> Vec<Half> {
        edge(ops, |dev| edge_ops::src_dst_add_leakyrelu(dev, &g.coo, s_dst, s_src, slope))
    }
    fn sub_row_exp(ops: &mut Ops, g: &GraphView, e: &[Half], m: &[Half], d: Dispatch) -> Vec<Half> {
        // §3.1.2 / §5.3: AMP promotes exp to float with a tensor round
        // trip; the shadow API stays in half because e − m ≤ 0.
        let shadow = d.mode != PrecisionMode::HalfNaive;
        let y = edge(ops, |dev| edge_ops::sub_row_exp(dev, &g.coo, e, m, shadow));
        if !shadow {
            // The AMP path materialized float tensors: count the conversions.
            ops.tensor_conversions += 2;
            ops.converted_elems += 2 * g.nnz() as u64;
        }
        y
    }
    fn div_row(ops: &mut Ops, g: &GraphView, e: &[Half], z: &[Half]) -> Vec<Half> {
        edge(ops, |dev| edge_ops::div_row(dev, &g.coo, e, z))
    }
    fn mul(ops: &mut Ops, g: &GraphView, a: &[Half], b: &[Half]) -> Vec<Half> {
        edge(ops, |dev| edge_ops::mul(dev, &g.coo, a, b))
    }
    fn softmax_grad(
        ops: &mut Ops,
        g: &GraphView,
        alpha: &[Half],
        dalpha: &[Half],
        t: &[Half],
    ) -> Vec<Half> {
        edge(ops, |dev| edge_ops::softmax_grad(dev, &g.coo, alpha, dalpha, t))
    }
    fn leakyrelu_grad(
        ops: &mut Ops,
        g: &GraphView,
        e: &[Half],
        de: &[Half],
        slope: f32,
    ) -> Vec<Half> {
        edge(ops, |dev| edge_ops::leakyrelu_grad(dev, &g.coo, e, de, slope))
    }
    /// Sharded runs halo-exchange `z` once for the whole fused pass — the
    /// fusion win carries over to the wire: one exchange instead of the
    /// unfused chain's two (SDDMM + SpMMve).
    fn fused_attn_forward(
        ops: &mut Ops,
        g: &GraphView,
        s_dst: &[Half],
        s_src: &[Half],
        slope: f32,
        z: &[Half],
        f: usize,
        d: Dispatch,
    ) -> [Vec<Half>; 3] {
        let ins = [buf_ref(s_dst), buf_ref(s_src), buf_ref(z)];
        let y = match d.dist {
            None => {
                let (y, stats) =
                    fused::fused_attn_forward(ops.dev, &g.coo, s_dst, s_src, slope, z, f);
                ops.record(stats);
                d.capture_node(
                    "fused_attn_forward",
                    &ins,
                    &[buf_ref(&y.e), buf_ref(&y.alpha), buf_ref(&y.out)],
                    None,
                );
                y
            }
            Some(ctx) => {
                let mut acc = FusedAttnForward {
                    e: vec![Half::ZERO; g.nnz()],
                    alpha: vec![Half::ZERO; g.nnz()],
                    out: vec![Half::ZERO; g.n() * f],
                };
                for shard in &ctx.plan.shards {
                    ctx.exchange_halo_half(ops, z, f, shard);
                    let (y, stats) = fused::fused_attn_forward_window(
                        ops.dev,
                        &g.coo,
                        s_dst,
                        s_src,
                        slope,
                        z,
                        f,
                        shard.row_range,
                    );
                    ctx.log_compute(shard.index, stats.time_us);
                    ops.record(stats);
                    d.capture_node(
                        "fused_attn_forward",
                        &ins,
                        &[buf_ref(&y.e), buf_ref(&y.alpha), buf_ref(&y.out)],
                        Some(shard.row_range),
                    );
                    let (r0, r1) = shard.row_range;
                    let (e0, e1) = shard.edge_range;
                    acc.e[e0..e1].copy_from_slice(&y.e[e0..e1]);
                    acc.alpha[e0..e1].copy_from_slice(&y.alpha[e0..e1]);
                    acc.out[r0 * f..r1 * f].copy_from_slice(&y.out[r0 * f..r1 * f]);
                }
                acc
            }
        };
        [y.e, y.alpha, y.out]
    }
    /// All operands are edge tensors (local to the shard that owns the
    /// rows), so sharded runs are windowed launches with zero
    /// communication.
    fn fused_softmax_grad(
        ops: &mut Ops,
        g: &GraphView,
        alpha: &[Half],
        dalpha: &[Half],
        e: &[Half],
        slope: f32,
        d: Dispatch,
    ) -> Vec<Half> {
        let ins = [buf_ref(alpha), buf_ref(dalpha), buf_ref(e)];
        let spans = (Span::Rows(1), Span::Edges);
        launch(ops, g, d, "fused_softmax_grad", &ins, spans, Half::ZERO, no_halo, |ops, win| {
            fused::fused_softmax_grad_window(ops.dev, &g.coo, alpha, dalpha, e, slope, win)
        })
    }
}
