//! Isolated calls into single layers at a workload's shapes, timed from
//! outside: each is repeated and the median is reported.

use crate::report::median;
use crate::trace::Tracer;
use halfgnn_graph::{Csr, DeltaCsr, NeighborSampler, VertexId};
use halfgnn_half::slice::{f32_slice_to_half, half_slice_to_f32};
use halfgnn_nn::graphdata::GraphView;
use halfgnn_nn::models::{gcn_agg_f32, gcn_agg_half, Dispatch, GcnNorm, PrecisionMode};
use halfgnn_sim::{launch, DeviceConfig, LaunchParams};
use halfgnn_tensor::Ops;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median milliseconds of `reps` calls of `f`, each inside a span `name`.
fn time_ms(tracer: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            tracer.span(name, |_| f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&walls)
}

/// Deterministic values in [-1, 1) for synthetic operands.
pub fn synthetic(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed ^ 0x51ed_2701;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Milliseconds per right-normalised GCN aggregation over `adj` at width
/// `f`, half (HalfGNN kernels) and float, on `dev`.
pub fn spmm_calls_ms(tracer: &mut Tracer, dev: &DeviceConfig, adj: &Csr, f: usize) -> (f64, f64) {
    let g = GraphView::full(adj);
    let x = synthetic(adj.num_rows() * f, 3);
    let xh = f32_slice_to_half(&x);
    let half = time_ms(tracer, "kernels.gcn_agg_half", REPS, || {
        let mut ops = Ops::new(dev);
        black_box(gcn_agg_half(
            &mut ops,
            &g,
            &xh,
            f,
            GcnNorm::Right,
            Dispatch::untuned(PrecisionMode::HalfGnn),
        ));
    });
    let float = time_ms(tracer, "kernels.gcn_agg_f32", REPS, || {
        let mut ops = Ops::new(dev);
        black_box(gcn_agg_f32(
            &mut ops,
            &g,
            &x,
            f,
            GcnNorm::Right,
            Dispatch::untuned(PrecisionMode::Float),
        ));
    });
    (half, float)
}

/// Nanoseconds per element of f32 → half and half → f32 over `table`.
pub fn conversion_ns_per_elem(tracer: &mut Tracer, table: &[f32]) -> (f64, f64) {
    let h = f32_slice_to_half(table);
    let n = table.len() as f64;
    let to_half = time_ms(tracer, "half.f32_slice_to_half", REPS, || {
        black_box(f32_slice_to_half(black_box(table)));
    });
    let to_f32 = time_ms(tracer, "half.half_slice_to_f32", REPS, || {
        black_box(half_slice_to_f32(black_box(&h)));
    });
    (to_half * 1e6 / n, to_f32 * 1e6 / n)
}

/// A dense GEMM `op(A)[m×k] · op(B)[k×n]`, with A and B transposed or not.
#[derive(Clone, Copy, Debug)]
pub struct Gemm {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub ta: bool,
    pub tb: bool,
}

/// Median host milliseconds of one GEMM in the given precision on `dev`.
pub fn gemm_ms(tracer: &mut Tracer, dev: &DeviceConfig, half: bool, g: Gemm) -> f64 {
    let a = synthetic(g.m * g.k, 5);
    let b = synthetic(g.k * g.n, 7);
    if half {
        let (ah, bh) = (f32_slice_to_half(&a), f32_slice_to_half(&b));
        time_ms(tracer, "tensor.gemm_half", REPS, || {
            black_box(Ops::new(dev).gemm_half(&ah, g.ta, &bh, g.tb, g.m, g.k, g.n));
        })
    } else {
        time_ms(tracer, "tensor.gemm_f32", REPS, || {
            black_box(Ops::new(dev).gemm_f32(&a, g.ta, &b, g.tb, g.m, g.k, g.n));
        })
    }
}

/// Microseconds per sampled batch: the workload's sampler over its train
/// vertices, first-epoch schedule, at most 32 batches.
pub fn sample_us_per_batch(
    tracer: &mut Tracer,
    adj: &Csr,
    train: &[bool],
    batch: usize,
    fanout: u32,
    seed: u64,
) -> f64 {
    let graph = DeltaCsr::new(adj.clone());
    let sampler = NeighborSampler::new(fanout, 2, seed);
    let ids: Vec<VertexId> =
        train.iter().enumerate().filter_map(|(v, &t)| t.then_some(v as VertexId)).collect();
    let walls: Vec<f64> = sampler
        .schedule(&ids, batch, 0)
        .iter()
        .take(32)
        .enumerate()
        .map(|(b, seeds)| {
            let t = Instant::now();
            tracer.span("graph.sample", |_| black_box(sampler.sample(&graph, seeds, b as u64)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&walls)
}

/// Microseconds per `DeltaCsr::insert_undirected` of `picks` into `adj`.
pub fn delta_insert_us(tracer: &mut Tracer, adj: &Csr, picks: &[(VertexId, VertexId)]) -> f64 {
    let mut graph = DeltaCsr::new(adj.clone());
    let walls: Vec<f64> = picks
        .iter()
        .map(|&(u, v)| {
            let t = Instant::now();
            tracer.span("graph.delta_insert", |_| black_box(graph.insert_undirected(u, v)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&walls)
}

/// Microseconds of a minimal launch (one CTA of one warp, empty body)
/// through the given executor.
pub fn launch_overhead_us(tracer: &mut Tracer, dev: &DeviceConfig) -> f64 {
    let params = LaunchParams { num_ctas: 1, warps_per_cta: 1 };
    1e3 * time_ms(tracer, "sim.launch", 201, || {
        black_box(launch(dev, "perfbench_empty", params, |cta| cta.id));
    })
}

/// `count` distinct-endpoint vertex pairs drawn from `seed`.
pub fn edge_picks(n: usize, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut s = seed ^ 0xed6e_5eed;
    let mut next = || {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((s >> 33) % n as u64) as VertexId
    };
    let mut picks = Vec::with_capacity(count);
    while picks.len() < count {
        let (u, v) = (next(), next());
        if u != v {
            picks.push((u, v));
        }
    }
    picks
}
