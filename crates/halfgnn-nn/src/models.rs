//! Model and precision-mode selection, plus the kernel dispatch layer that
//! routes a model's sparse operations to the right system's kernels.
//!
//! When a [`DistCtx`] is attached the dispatch layer also *shards* every
//! sparse operation: each simulated device runs the global kernel tiling
//! clamped to its row (or edge) window, after a metered halo exchange of
//! the remote operand rows, and the per-shard outputs are pasted back into
//! the global tensor. Because windowed launches are bitwise slices of the
//! full launch (see `halfgnn-kernels`), sharded float training is
//! bit-identical to single-device training; sharded half training differs
//! only where the gradient all-reduce genuinely re-quantizes on the f16
//! wire. Per-edge elementwise kernels (LeakyReLU, shadow-exp, row-div,
//! softmax-grad, …) are replicated on every device and never dispatched
//! through a window: their operands already ride along with the feature
//! halos, so they contribute zero additional communication.

use crate::dist::DistCtx;
use crate::elem::Elem;
use crate::graphdata::GraphView;
use halfgnn_exec::{buf_ref, BufRef, ExecCtx};
use halfgnn_graph::partition::Shard;
use halfgnn_half::Half;
use halfgnn_kernels::baseline::cusparse;
use halfgnn_kernels::common::{EdgeWeights, ScalePlacement, Tiling, WriteStrategy};
use halfgnn_kernels::{baseline::dgl_sddmm, halfgnn_sddmm};
use halfgnn_kernels::{halfgnn_spmm, quant_spmm};
use halfgnn_sim::KernelStats;
use halfgnn_tensor::Ops;
use halfgnn_tune::plan::{AttnPlan, KernelPlan, SddmmPlan};
use halfgnn_tune::{SpmmPlan, SpmmVariant, Tuner};

/// Which GNN architecture to train.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Graph Convolutional Network (Kipf & Welling), right degree norm.
    Gcn,
    /// Graph Attention Network (Veličković et al.), single head.
    Gat,
    /// Graph Isomorphism Network (Xu et al.).
    Gin,
    /// GraphSAGE with the mean aggregator (Hamilton et al.).
    Sage,
}

/// Which system's kernels and numerics a training run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrecisionMode {
    /// f32 everywhere — the DGL-float baseline.
    Float,
    /// Half state tensors through DGL/cuSPARSE-style kernels with AMP
    /// promotions — the DGL-half baseline (overflows on hub graphs).
    HalfNaive,
    /// The paper's HalfGNN system: half2/half8 kernels, discretized
    /// reduction scaling, staged writes, shadow APIs.
    HalfGnn,
    /// Ablation (§6.1.1): HalfGNN kernels but post-reduction scaling — the
    /// overflow returns.
    HalfGnnNoDiscretize,
    /// INT8 quantized aggregation and wire: HalfGNN's system with
    /// per-64-element scale-block INT8 SpMM operands under deterministic
    /// stochastic rounding, and a 1 byte/element halo + all-reduce wire.
    /// Quantized plans run only where the f64 oracle is clean; vetoed
    /// sites fall back to the f16 HalfGNN kernels. SDDMM and the dense
    /// path stay f16 — the quantization targets the aggregation
    /// bandwidth, which is where §5's roofline says the bytes are.
    I8,
}

impl PrecisionMode {
    /// True for any mode whose state tensors are half precision.
    pub fn is_half(self) -> bool {
        !matches!(self, PrecisionMode::Float)
    }

    /// Scaling placement of this mode's HalfGNN SpMM when the aggregation
    /// carries a per-row scale (half modes only). This is a *correctness*
    /// property of the mode — never a tuning knob.
    fn scaling(self) -> ScalePlacement {
        match self {
            PrecisionMode::HalfGnn | PrecisionMode::I8 => ScalePlacement::Discretized,
            PrecisionMode::HalfGnnNoDiscretize => ScalePlacement::PostReduction,
            _ => unreachable!("scaling placement is only for HalfGNN modes"),
        }
    }
}

/// How a training run dispatches its sparse kernels: the precision mode
/// (which kernel *system* runs) plus an optional autotuner (which *plan*
/// each HalfGNN kernel runs with) plus an optional sharded-execution
/// context (how many simulated devices run it, and over which
/// interconnect). With no tuner attached every dispatch uses the untuned
/// default plan; with no `dist` attached every dispatch is one
/// single-device launch — both bit-for-bit identical to the simpler
/// trainer they generalize.
#[derive(Clone, Copy)]
pub struct Dispatch<'t> {
    /// Kernel system / numerics.
    pub mode: PrecisionMode,
    /// Kernel-plan autotuner, when `TrainConfig::tuning` is not `Off`.
    pub tuner: Option<&'t Tuner>,
    /// Force the fused attention pipeline on (`--fusion`). When false the
    /// fused kernels remain reachable only through tuner selection, so an
    /// untuned dispatch stays bit-for-bit on the unfused chain.
    pub fusion: bool,
    /// Sharded-execution context, when `TrainConfig::shards > 1`. `None`
    /// runs single-device launches — bit-for-bit the pre-sharding trainer.
    pub dist: Option<&'t DistCtx>,
    /// Capture/replay context (`--replay`). While capturing, every plan
    /// resolution and kernel launch records into the execution graph;
    /// while replaying, plans come back from the captured stream with zero
    /// tuner lookups.
    pub exec: Option<&'t ExecCtx>,
    /// Force every SpMM onto a specific skeleton, overriding both the
    /// untuned default and the tuner's pick. Serving sets
    /// `VertexParallel`: its neighbor groups never cross rows, so a row's
    /// f32/f16 summation order depends only on that row — which is what
    /// makes a coalesced batch bitwise-equal to serving each request
    /// alone. The edge-parallel skeletons cut rows at warp-tile
    /// boundaries derived from *global* edge offsets, so their partial
    /// sums shift with batch composition.
    pub force_spmm: Option<SpmmVariant>,
    /// Seed for INT8 stochastic rounding (`PrecisionMode::I8` only).
    /// Quantization is a pure function of `(seed, site, index)`; the
    /// trainer re-keys this per epoch so rounding errors decorrelate
    /// across steps while every run stays reproducible.
    pub quant_seed: u64,
}

impl Dispatch<'static> {
    /// Dispatch with default plans only (`tuning: Off`).
    pub fn untuned(mode: PrecisionMode) -> Dispatch<'static> {
        Dispatch {
            mode,
            tuner: None,
            fusion: false,
            dist: None,
            exec: None,
            force_spmm: None,
            quant_seed: 0,
        }
    }
}

impl<'t> Dispatch<'t> {
    /// Dispatch through a tuner (`tuning: Auto` / `Cached`).
    pub fn tuned(mode: PrecisionMode, tuner: &'t Tuner) -> Dispatch<'t> {
        Dispatch { tuner: Some(tuner), ..Dispatch::untuned(mode) }
    }

    /// Explicitly force (or forbid forcing) the fused attention pipeline.
    pub fn with_fusion(mut self, fusion: bool) -> Dispatch<'t> {
        self.fusion = fusion;
        self
    }

    /// Attach (or detach) a sharded-execution context.
    pub fn with_dist(mut self, dist: Option<&'t DistCtx>) -> Dispatch<'t> {
        self.dist = dist;
        self
    }

    /// Attach (or detach) a capture/replay context.
    pub fn with_exec(mut self, exec: Option<&'t ExecCtx>) -> Dispatch<'t> {
        self.exec = exec;
        self
    }

    /// Pin every SpMM to the per-row-independent vertex-parallel skeleton
    /// (see [`Dispatch::force_spmm`]). `false` restores default routing.
    pub fn with_vertex_parallel_spmm(mut self, on: bool) -> Dispatch<'t> {
        self.force_spmm = on.then_some(SpmmVariant::VertexParallel);
        self
    }

    /// Re-key INT8 stochastic rounding (no effect outside
    /// [`PrecisionMode::I8`]).
    pub fn with_quant_seed(mut self, seed: u64) -> Dispatch<'t> {
        self.quant_seed = seed;
        self
    }

    /// Capture hook: record a sparse-kernel launch into the execution
    /// graph (no-op without a context or after it is sealed).
    pub(crate) fn capture_node(
        &self,
        op: &'static str,
        inputs: &[BufRef],
        outputs: &[BufRef],
        win: Option<(usize, usize)>,
    ) {
        if let Some(ctx) = self.exec {
            ctx.record_node(op, inputs, outputs, win);
        }
    }

    /// Whether GAT's attention chain runs the fused single-pass kernels
    /// for `f`-wide features over this graph. Explicit `fusion` config
    /// wins; otherwise the tuner decides per graph shape; with neither,
    /// the unfused five-kernel chain (bit-for-bit pre-fusion behavior).
    /// Baseline modes and odd `f` (the fused kernel is half2-padded)
    /// never fuse.
    pub fn attn_fused(&self, g: &GraphView, f: usize) -> bool {
        let halfgnn =
            matches!(self.mode, PrecisionMode::HalfGnn | PrecisionMode::HalfGnnNoDiscretize);
        if !halfgnn || !f.is_multiple_of(2) {
            return false;
        }
        // Replay pulls the captured decision; capture records whatever the
        // eager resolution below decides. Both sit after the early returns
        // so the plan stream pairs up launch-for-launch across epochs.
        if let Some(ctx) = self.exec {
            if ctx.is_replaying() {
                return ctx.next_attn_plan().fused;
            }
        }
        let fused = if self.fusion {
            true
        } else {
            match self.tuner {
                Some(t) => t.attn_plan(&g.csr, f).fused,
                None => false,
            }
        };
        if let Some(ctx) = self.exec {
            ctx.record_plan(KernelPlan::Attn(AttnPlan { fused }));
        }
        fused
    }
}

impl<'t> From<PrecisionMode> for Dispatch<'t> {
    fn from(mode: PrecisionMode) -> Dispatch<'t> {
        Dispatch::untuned(mode)
    }
}

/// GCN degree-norm placement (§3.1.3 discusses all three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcnNorm {
    /// Divide the SpMM *output* by the degree — the "frequently used"
    /// variant whose forward reduction overflows under naive half.
    Right,
    /// Divide the SpMM *input* by the degree: the forward never overflows,
    /// "however, during backward computation the degree-norm happens after
    /// SpMMv, where it is likely to overflow" (§3.1.3).
    Left,
    /// Divide input and output by √degree (Eq. 2's symmetric norm).
    Both,
}

/// Index span of a sparse kernel's launch window or output paste.
#[derive(Clone, Copy)]
pub(crate) enum Span {
    /// Vertex rows, `f` output values each (`f` matters only to a paste).
    Rows(usize),
    /// Edges, one output value each.
    Edges,
}

impl Span {
    fn of(self, shard: &Shard) -> (usize, usize) {
        match self {
            Span::Rows(_) => shard.row_range,
            Span::Edges => shard.edge_range,
        }
    }
}

/// One sparse-kernel launch through the dispatch layer, logged into `ops`
/// and recorded for capture. On one device `run` covers the full
/// `window` span. With a [`DistCtx`] attached, each shard runs `halo`
/// (the metered exchange of its remote operand rows), then `run` over its
/// own window, and its `paste` span of the output is copied into the
/// global tensor. Windowed launches are bitwise slices of the full launch
/// (shards own contiguous row ranges, so their edge ranges are exactly
/// the CSR slices of those rows), so the pasted tensor is the
/// single-device output exactly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch<T: Copy>(
    ops: &mut Ops,
    g: &GraphView,
    d: Dispatch<'_>,
    op: &'static str,
    ins: &[BufRef],
    (window, paste): (Span, Span),
    zero: T,
    mut halo: impl FnMut(&mut Ops, &DistCtx, &Shard),
    mut run: impl FnMut(&mut Ops, (usize, usize)) -> (Vec<T>, KernelStats),
) -> Vec<T> {
    let Some(ctx) = d.dist else {
        let full = match window {
            Span::Rows(_) => (0, g.n()),
            Span::Edges => (0, g.nnz()),
        };
        let (y, stats) = run(ops, full);
        ops.record(stats);
        d.capture_node(op, ins, &[buf_ref(&y)], None);
        return y;
    };
    let (len, f) = match paste {
        Span::Rows(f) => (g.n() * f, f),
        Span::Edges => (g.nnz(), 1),
    };
    let mut out = vec![zero; len];
    for shard in &ctx.plan.shards {
        halo(ops, ctx, shard);
        let win = window.of(shard);
        let (y, stats) = run(ops, win);
        ctx.log_compute(shard.index, stats.time_us);
        ops.record(stats);
        d.capture_node(op, ins, &[buf_ref(&y)], Some(win));
        let (lo, hi) = paste.of(shard);
        out[lo * f..hi * f].copy_from_slice(&y[lo * f..hi * f]);
    }
    out
}

// ---------------------------------------------------------------------
// Sparse-kernel dispatch. Every call records its stats into `ops`.
// ---------------------------------------------------------------------

/// f32 GCN aggregation under the chosen norm ([`Elem::gcn_agg`]).
pub fn gcn_agg_f32(
    ops: &mut Ops,
    g: &GraphView,
    x: &[f32],
    f: usize,
    norm: GcnNorm,
    d: Dispatch<'_>,
) -> Vec<f32> {
    f32::gcn_agg(ops, g, x, f, norm, d)
}

/// Half GCN aggregation under the chosen norm and kernel system
/// ([`Elem::gcn_agg`]).
pub fn gcn_agg_half(
    ops: &mut Ops,
    g: &GraphView,
    x: &[Half],
    f: usize,
    norm: GcnNorm,
    d: Dispatch<'_>,
) -> Vec<Half> {
    Half::gcn_agg(ops, g, x, f, norm, d)
}

/// The single HalfGNN SpMM plan-resolution point: every SpMMv/SpMMve
/// dispatch in every model funnels through here. `scaling` is decided by
/// the caller (mode + aggregation semantics); the *plan* — write
/// strategy, tile geometry, edge- vs vertex-parallel skeleton — comes
/// from the tuner when one is attached and is the untuned default
/// otherwise, keeping `tuning: Off` runs bit-identical to the pre-tuner
/// trainer. `win` clamps the launch to a shard's global row window.
#[allow(clippy::too_many_arguments)]
fn halfgnn_spmm_planned(
    ops: &mut Ops,
    g: &GraphView,
    w: EdgeWeights<'_>,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    scaling: ScalePlacement,
    d: Dispatch<'_>,
    win: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    let plan = match d.exec {
        Some(ctx) if ctx.is_replaying() => ctx.next_spmm_plan(),
        exec => {
            let mut plan = match d.tuner {
                Some(t) => t.spmm_plan(&g.csr, f, !w.is_ones(), scaling),
                None => SpmmPlan::default(),
            };
            // A forced skeleton overrides both default and tuned routing
            // (and is recorded, so replay reproduces the forced variant).
            if let Some(v) = d.force_spmm {
                plan.variant = v;
            }
            if let Some(ctx) = exec {
                ctx.record_plan(KernelPlan::Spmm(plan));
            }
            plan
        }
    };
    match plan.variant {
        SpmmVariant::EdgeParallel => halfgnn_spmm::spmm_window(
            ops.dev,
            &g.coo,
            w,
            x,
            f,
            row_scale,
            &plan.to_spmm_config(scaling),
            win,
        ),
        // The canonical COO edge order equals CSR order, so edge-weight
        // tensors remain valid under the vertex-parallel skeleton.
        SpmmVariant::VertexParallel => halfgnn_spmm::spmm_vertex_parallel_window(
            ops.dev, &g.csr, w, x, f, row_scale, scaling, win,
        ),
    }
}

/// The INT8 kernel's untuned geometry: its single vertex-parallel
/// skeleton at the paper-default group size (candidate #0 of
/// `spmm_i8_candidates`).
fn default_i8_plan() -> SpmmPlan {
    SpmmPlan {
        variant: SpmmVariant::VertexParallel,
        writes: WriteStrategy::Staged,
        edges_per_warp: 64,
        warps_per_cta: 4,
    }
}

/// One windowed INT8 SpMM launch, or its f16 fallback. With a tuner
/// attached the quantized kernel runs only where the f64 oracle found a
/// clean (no divergence, no saturation) candidate; a `None` plan means
/// every candidate was oracle-dirty on this shape and the site must run
/// the f16 HalfGNN kernel instead. The fallback decision is captured, so
/// replay never re-tunes a vetoed site back onto the quantized path.
#[allow(clippy::too_many_arguments)]
fn spmm_i8_planned(
    ops: &mut Ops,
    g: &GraphView,
    w: EdgeWeights<'_>,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    d: Dispatch<'_>,
    win: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    let (plan, quantized) = match d.exec {
        Some(ctx) if ctx.is_replaying() => ctx.next_spmm_i8_plan(),
        exec => {
            let resolved = match d.tuner {
                Some(t) => match t.spmm_i8_plan(&g.csr, f, !w.is_ones(), d.quant_seed) {
                    Some(p) => (p, true),
                    None => (SpmmPlan::default(), false),
                },
                None => (default_i8_plan(), true),
            };
            if let Some(ctx) = exec {
                ctx.record_plan(match resolved {
                    (p, true) => KernelPlan::SpmmI8(p),
                    (p, false) => KernelPlan::Spmm(p),
                });
            }
            resolved
        }
    };
    if quantized {
        let tiling =
            Tiling { edges_per_warp: plan.edges_per_warp, warps_per_cta: plan.warps_per_cta };
        quant_spmm::spmm_i8_window(ops.dev, &g.csr, w, x, f, row_scale, tiling, d.quant_seed, win)
    } else {
        // Oracle-vetoed fallback: the f16 kernels with I8's correctness
        // scaling (discretized — the mode property).
        let scaling = if row_scale.is_some() { d.mode.scaling() } else { ScalePlacement::None };
        let mut plan = plan;
        if let Some(v) = d.force_spmm {
            plan.variant = v;
        }
        match plan.variant {
            SpmmVariant::EdgeParallel => halfgnn_spmm::spmm_window(
                ops.dev,
                &g.coo,
                w,
                x,
                f,
                row_scale,
                &plan.to_spmm_config(scaling),
                win,
            ),
            SpmmVariant::VertexParallel => halfgnn_spmm::spmm_vertex_parallel_window(
                ops.dev, &g.csr, w, x, f, row_scale, scaling, win,
            ),
        }
    }
}

/// One windowed half SpMM launch under the mode's kernel system.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spmm_half_window(
    ops: &mut Ops,
    g: &GraphView,
    w: EdgeWeights<'_>,
    x: &[Half],
    f: usize,
    row_scale: Option<&[Half]>,
    d: Dispatch<'_>,
    win: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    match d.mode {
        PrecisionMode::HalfNaive => {
            cusparse::spmm_half_window(ops.dev, &g.coo, w, x, f, row_scale, win)
        }
        PrecisionMode::HalfGnn | PrecisionMode::HalfGnnNoDiscretize => {
            // A per-row scale means mean-style aggregation: its placement
            // is the mode's correctness property. A plain sum never
            // scales.
            let scaling = if row_scale.is_some() { d.mode.scaling() } else { ScalePlacement::None };
            halfgnn_spmm_planned(ops, g, w, x, f, row_scale, scaling, d, win)
        }
        PrecisionMode::I8 => spmm_i8_planned(ops, g, w, x, f, row_scale, d, win),
        PrecisionMode::Float => unreachable!("float path uses the f32 dispatch"),
    }
}

/// One windowed half SDDMM launch under the mode's kernel system.
pub(crate) fn sddmm_half_window(
    ops: &mut Ops,
    g: &GraphView,
    u: &[Half],
    v: &[Half],
    f: usize,
    d: Dispatch<'_>,
    win: (usize, usize),
) -> (Vec<Half>, KernelStats) {
    match d.mode {
        PrecisionMode::HalfNaive => dgl_sddmm::sddmm_half_window(ops.dev, &g.coo, u, v, f, win),
        // I8 keeps SDDMM in f16: the dot products are per-edge (no long
        // reductions to quantize) and the operands already rode the INT8
        // halo wire — re-quantizing them buys no bytes.
        PrecisionMode::HalfGnn | PrecisionMode::HalfGnnNoDiscretize | PrecisionMode::I8 => {
            let plan = match d.exec {
                Some(ctx) if ctx.is_replaying() => ctx.next_sddmm_plan(),
                exec => {
                    // `default_for` round-trips `widest_for` exactly, so
                    // the captured plan replays bit-identically.
                    let plan = match d.tuner {
                        Some(t) => t.sddmm_plan(&g.csr, f),
                        None => SddmmPlan::default_for(f),
                    };
                    if let Some(ctx) = exec {
                        ctx.record_plan(KernelPlan::Sddmm(plan));
                    }
                    plan
                }
            };
            halfgnn_sddmm::sddmm_window(ops.dev, &g.coo, u, v, f, &plan.to_sddmm_config(), win)
        }
        PrecisionMode::Float => unreachable!("float path uses the f32 SDDMM"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halfgnn_graph::partition::PartitionStrategy;
    use halfgnn_graph::Csr;
    use halfgnn_kernels::common::Reduce;
    use halfgnn_sim::interconnect::Topology;
    use halfgnn_sim::DeviceConfig;

    fn prep() -> GraphView {
        let csr = Csr::from_edges(6, 6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
            .symmetrized_with_self_loops();
        GraphView::full(&csr)
    }

    #[test]
    fn half_dispatch_runs_all_modes() {
        let dev = DeviceConfig::a100_like();
        let g = prep();
        let x = vec![Half::from_f32(0.5); g.n() * 4];
        for mode in
            [PrecisionMode::HalfNaive, PrecisionMode::HalfGnn, PrecisionMode::HalfGnnNoDiscretize]
        {
            let mut ops = Ops::new(&dev);
            let y = Half::spmm_mean(&mut ops, &g, &x, 4, mode.into());
            assert_eq!(y.len(), g.n() * 4);
            // Mean of constant 0.5 is 0.5 whatever the kernel.
            assert!((y[0].to_f32() - 0.5).abs() < 0.01, "{mode:?}: {}", y[0]);
            assert!(ops.kernel_count() >= 1);
        }
    }

    #[test]
    fn float_and_half_dispatch_agree() {
        let dev = DeviceConfig::a100_like();
        let g = prep();
        let xf: Vec<f32> = (0..g.n() * 4).map(|i| (i % 7) as f32 * 0.25 - 0.75).collect();
        let xh: Vec<Half> = xf.iter().map(|&v| Half::from_f32(v)).collect();
        let mut ops = Ops::new(&dev);
        let yf = f32::spmm_sum(&mut ops, &g, &xf, 4, Dispatch::untuned(PrecisionMode::Float));
        let yh = Half::spmm_sum(&mut ops, &g, &xh, 4, PrecisionMode::HalfGnn.into());
        for (a, b) in yf.iter().zip(&yh) {
            assert!((a - b.to_f32()).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn mode_flags() {
        assert!(!PrecisionMode::Float.is_half());
        assert!(PrecisionMode::HalfNaive.is_half());
        assert!(PrecisionMode::HalfGnn.is_half());
    }

    #[test]
    fn sharded_dispatch_is_bitwise_for_every_kernel_family() {
        // Every sharded sparse dispatch must paste back the exact bits of
        // the single-device launch (the tentpole's core invariant — the
        // full-blown harness lives in tests/shard_equivalence.rs).
        let dev = DeviceConfig::a100_like();
        let g = prep();
        let n = g.n();
        let f = 4;
        let xh: Vec<Half> =
            (0..n * f).map(|i| Half::from_f32((i % 5) as f32 * 0.3 - 0.6)).collect();
        let xf: Vec<f32> = xh.iter().map(|h| h.to_f32()).collect();
        let wh: Vec<Half> = (0..g.nnz()).map(|i| Half::from_f32((i % 3) as f32 * 0.25)).collect();
        let wf: Vec<f32> = wh.iter().map(|h| h.to_f32()).collect();
        let ctx = DistCtx::new(&g.csr, 3, PartitionStrategy::Contiguous, Topology::Ring);

        let mut ops = Ops::new(&dev);
        let single = Dispatch::untuned(PrecisionMode::HalfGnn);
        let shard = single.with_dist(Some(&ctx));
        assert_eq!(
            Half::spmm_mean(&mut ops, &g, &xh, f, single),
            Half::spmm_mean(&mut ops, &g, &xh, f, shard)
        );
        assert_eq!(
            Half::spmmve(&mut ops, &g, &wh, &xh, f, single),
            Half::spmmve(&mut ops, &g, &wh, &xh, f, shard)
        );
        assert_eq!(
            Half::sddmm(&mut ops, &g, &xh, &xh, f, single),
            Half::sddmm(&mut ops, &g, &xh, &xh, f, shard)
        );
        assert_eq!(
            Half::edge_reduce(&mut ops, &g, &wh, Reduce::Max, single),
            Half::edge_reduce(&mut ops, &g, &wh, Reduce::Max, shard)
        );

        let fsingle = Dispatch::untuned(PrecisionMode::Float);
        let fshard = fsingle.with_dist(Some(&ctx));
        assert_eq!(
            f32::spmm_sum(&mut ops, &g, &xf, f, fsingle),
            f32::spmm_sum(&mut ops, &g, &xf, f, fshard)
        );
        assert_eq!(
            f32::sddmm(&mut ops, &g, &xf, &xf, f, fsingle),
            f32::sddmm(&mut ops, &g, &xf, &xf, f, fshard)
        );
        assert_eq!(
            f32::edge_reduce(&mut ops, &g, &wf, Reduce::Sum, fsingle),
            f32::edge_reduce(&mut ops, &g, &wf, Reduce::Sum, fshard)
        );
        // Float grad reductions are the exact global contraction.
        assert_eq!(
            f32::grad_gemm(&mut ops, &xf, &xf, f, n, f, fsingle),
            f32::grad_gemm(&mut ops, &xf, &xf, f, n, f, fshard)
        );
        // And the dispatch actually metered traffic.
        assert!(ctx.snapshot().total_bytes() > 0);
    }

    #[test]
    fn sharded_fused_attention_is_bitwise() {
        let dev = DeviceConfig::a100_like();
        let g = prep();
        let n = g.n();
        let f = 4;
        let z: Vec<Half> = (0..n * f).map(|i| Half::from_f32((i % 7) as f32 * 0.2 - 0.5)).collect();
        let s: Vec<Half> = (0..n).map(|i| Half::from_f32(i as f32 * 0.1)).collect();
        let ctx = DistCtx::new(&g.csr, 2, PartitionStrategy::DegreeBalanced, Topology::AllToAll);
        let mut ops = Ops::new(&dev);
        let single = Dispatch::untuned(PrecisionMode::HalfGnn);
        let shard = single.with_dist(Some(&ctx));
        let a = Half::fused_attn_forward(&mut ops, &g, &s, &s, 0.2, &z, f, single);
        let b = Half::fused_attn_forward(&mut ops, &g, &s, &s, 0.2, &z, f, shard);
        assert_eq!(a, b);
        let [e, alpha, _] = &a;
        let ga = Half::fused_softmax_grad(&mut ops, &g, alpha, e, e, 0.2, single);
        let gb = Half::fused_softmax_grad(&mut ops, &g, alpha, e, e, 0.2, shard);
        assert_eq!(ga, gb);
    }
}
