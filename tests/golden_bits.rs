//! Golden bits: every number a training run or a serving engine reports,
//! pinned exactly against `golden_bits.txt`.
//!
//! The fixture holds one record per configuration: loss bits, accuracies,
//! modeled time, peak/DRAM bytes, the per-kernel breakdown, per-epoch
//! overflow and saturation summaries with their first-event sites, tuner
//! counters, comms and link stats, halo-cache counters, replay and
//! sampling summaries — and, for serving, the embedded logit bits, the
//! per-batch modeled timings and the engine's `ServeStats`. A change to
//! how the models, the trainer or the serving path are *written* must
//! leave every line untouched; a line that moves is a behaviour change.
//!
//! Left out on purpose: wall-clock times (host-dependent) and the byte
//! and buffer counts of `ReplaySummary`. Capture identifies buffers by
//! their address, so those counts depend on where the allocator placed
//! each tensor (see `perfbench/README.md`).
//!
//! Floats are written with Rust's shortest round-trip formatting, which
//! is exact; NaNs, whose payload formatting would hide, as raw bits.
//!
//! Inputs are hand-built: a 760-vertex graph whose hub touches every
//! other vertex (degree 760 with its self loop — a degree of 700 or more
//! needs that many vertices, since edges are deduplicated) under
//! count-like features, so `HalfNaive` overflows and its first-event site
//! is pinned; and a 256-vertex graph with a moderate hub and unit-scale
//! features for the sharded, replayed, sampled, tuned and served configs.

use halfgnn::graph::datasets::{DatasetSpec, GenKind, LoadedDataset};
use halfgnn::graph::features::Split;
use halfgnn::graph::partition::PartitionStrategy;
use halfgnn::graph::{Csr, VertexId};
use halfgnn::nn::models::GcnNorm;
use halfgnn::nn::params::TwoLayerParams;
use halfgnn::nn::trainer::{
    train_on, ExecMode, ModelKind, PrecisionMode, TrainConfig, TrainReport, Tuning,
};
use halfgnn::serve::{CachePrecision, ServeConfig, ServeEngine, ServedBatch};
use halfgnn::sim::{DeviceConfig, Request};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("golden_bits.txt");

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

fn dataset(
    name: &'static str,
    csr: Csr,
    f: usize,
    classes: usize,
    features: Vec<f32>,
) -> LoadedDataset {
    let n = csr.num_rows();
    let labels: Vec<u32> = (0..n).map(|i| ((i * 7 + i / 5) % classes) as u32).collect();
    let train: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
    let test: Vec<bool> = train.iter().map(|t| !t).collect();
    let coo = csr.to_coo();
    LoadedDataset {
        spec: DatasetSpec {
            id: "GB",
            name,
            paper_vertices: 0,
            paper_edges: 0,
            paper_feat: f,
            classes,
            labeled: true,
            vertices: n,
            feat: f,
            feat_signal: 1.0,
            feat_noise: 0.0,
            feat_nonneg: false,
            count_scale: 0.0,
            gen: GenKind::Grid { width: 1, height: 1 },
        },
        adj: csr,
        coo,
        features,
        labels,
        split: Split { train, val: vec![false; n], test },
    }
}

/// 760 vertices; vertex 0 is adjacent to every other vertex, the rest
/// form a ring with a few chords. Features are non-negative counts in
/// `0..211` (mean ≈ 105), so the hub's un-normalized sum is ≈ 80,000 —
/// past FP16's 65,504. Three classes: the half paths pad to four.
fn hub_graph() -> LoadedDataset {
    let n = 760usize;
    let f = 8;
    let mut edges: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|v| (0, v)).collect();
    for v in 1..n as VertexId {
        edges.push((v, 1 + v % (n as VertexId - 1)));
        if v % 5 == 0 {
            edges.push((v, 1 + (v * 17) % (n as VertexId - 1)));
        }
    }
    let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
    let x: Vec<f32> = (0..n * f).map(|i| ((i * 37 + 11) % 211) as f32).collect();
    dataset("golden-hub", csr, f, 3, x)
}

/// 256 vertices: three pseudo-random out-edges per vertex plus a hub at
/// vertex 0 touching every fourth vertex; unit-scale features.
fn small_graph() -> LoadedDataset {
    let n = 256usize;
    let f = 8;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for v in 0..n as VertexId {
        let nv = n as VertexId;
        edges.push((v, (v * 7 + 3) % nv));
        edges.push((v, (v * 13 + 5) % nv));
        edges.push((v, (v + 1) % nv));
        if v % 4 == 0 {
            edges.push((0, v));
        }
    }
    let csr = Csr::from_edges(n, n, &edges).symmetrized_with_self_loops();
    let x: Vec<f32> = (0..n * f).map(|i| ((i * 29) % 97) as f32 / 48.5 - 1.0).collect();
    dataset("golden-small", csr, f, 4, x)
}

// ---------------------------------------------------------------------
// Configurations.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Input {
    Hub,
    Small,
}

/// What a record keeps: everything, or (for Fast twins, whose times are
/// wall-clock and whose kernel-level provenance is not recorded) the
/// loss bits and the counts.
#[derive(Clone, Copy, PartialEq)]
enum Keep {
    All,
    LossesAndCounts,
}

struct Case {
    name: String,
    input: Input,
    keep: Keep,
    cfg: TrainConfig,
}

fn base(model: ModelKind, precision: PrecisionMode) -> TrainConfig {
    TrainConfig {
        model,
        precision,
        epochs: 3,
        hidden: 8,
        lr: 0.02,
        seed: 5,
        ..TrainConfig::default()
    }
}

const MODELS: [(ModelKind, &str); 4] = [
    (ModelKind::Gcn, "gcn"),
    (ModelKind::Gat, "gat"),
    (ModelKind::Gin, "gin"),
    (ModelKind::Sage, "sage"),
];

const PRECISIONS: [(PrecisionMode, &str); 5] = [
    (PrecisionMode::Float, "float"),
    (PrecisionMode::HalfNaive, "halfnaive"),
    (PrecisionMode::HalfGnn, "halfgnn"),
    (PrecisionMode::HalfGnnNoDiscretize, "nodiscretize"),
    (PrecisionMode::I8, "i8"),
];

fn pname(p: PrecisionMode) -> &'static str {
    PRECISIONS.iter().find(|(q, _)| *q == p).unwrap().1
}

fn mname(m: ModelKind) -> &'static str {
    MODELS.iter().find(|(k, _)| *k == m).unwrap().1
}

fn case(name: String, input: Input, cfg: TrainConfig) -> Case {
    Case { name, input, keep: Keep::All, cfg }
}

/// Every model under every precision: Sim, eager, one device, hub graph.
fn matrix_cases() -> Vec<Case> {
    let mut v = Vec::new();
    for (model, m) in MODELS {
        for (precision, p) in PRECISIONS {
            v.push(case(format!("matrix/{m}/{p}"), Input::Hub, base(model, precision)));
        }
    }
    v
}

/// Sharded runs: 2 shards DegreeBalanced and 4 shards 1.5D (c = 2), eager
/// and replayed, for GCN and GAT.
fn sharded_cases() -> Vec<Case> {
    let mut v = Vec::new();
    for model in [ModelKind::Gcn, ModelKind::Gat] {
        for precision in [PrecisionMode::Float, PrecisionMode::HalfGnn, PrecisionMode::I8] {
            for (shards, partition, part) in [
                (2, PartitionStrategy::DegreeBalanced, "balanced2"),
                (4, PartitionStrategy::OneP5D { c: 2 }, "1p5d4"),
            ] {
                for replay in [false, true] {
                    let mode = if replay { "replay" } else { "eager" };
                    v.push(case(
                        format!("sharded/{}/{}/{part}/{mode}", mname(model), pname(precision)),
                        Input::Small,
                        TrainConfig { shards, partition, replay, ..base(model, precision) },
                    ));
                }
            }
        }
    }
    v
}

/// Mini-batch runs, a streamed + tuned run, and the single-knob variants:
/// GCN norms, the transform-first GCN layer order, loss scaling, GIN λ,
/// fused attention and autotuning.
fn variant_cases() -> Vec<Case> {
    let mb = |model, precision| TrainConfig {
        batch_size: Some(64),
        fanout: 4,
        ..base(model, precision)
    };
    let mut v = Vec::new();
    for precision in [PrecisionMode::Float, PrecisionMode::HalfGnn, PrecisionMode::I8] {
        v.push(case(
            format!("minibatch/gcn/{}", pname(precision)),
            Input::Small,
            mb(ModelKind::Gcn, precision),
        ));
    }
    v.push(case(
        "minibatch/gat/halfgnn".into(),
        Input::Small,
        mb(ModelKind::Gat, PrecisionMode::HalfGnn),
    ));
    v.push(case(
        "minibatch/sage/halfnaive".into(),
        Input::Hub,
        mb(ModelKind::Sage, PrecisionMode::HalfNaive),
    ));
    v.push(case(
        "minibatch/gcn/halfgnn/stream-auto".into(),
        Input::Small,
        TrainConfig {
            stream_edges: 20,
            tuning: Tuning::Auto,
            epochs: 4,
            ..mb(ModelKind::Gcn, PrecisionMode::HalfGnn)
        },
    ));
    for (norm, nn) in [(GcnNorm::Left, "left"), (GcnNorm::Both, "both")] {
        for precision in [PrecisionMode::Float, PrecisionMode::HalfNaive, PrecisionMode::HalfGnn] {
            v.push(case(
                format!("norm/{nn}/{}", pname(precision)),
                Input::Hub,
                TrainConfig { gcn_norm: norm, ..base(ModelKind::Gcn, precision) },
            ));
        }
    }
    // hidden 4 < f_in 8: GCN layer 1 transforms before it aggregates.
    for precision in [PrecisionMode::Float, PrecisionMode::HalfNaive, PrecisionMode::HalfGnn] {
        v.push(case(
            format!("transform-first/gcn/{}", pname(precision)),
            Input::Hub,
            TrainConfig { hidden: 4, ..base(ModelKind::Gcn, precision) },
        ));
    }
    v.push(case(
        "transform-first/gcn/halfgnn/replay".into(),
        Input::Small,
        TrainConfig { hidden: 4, replay: true, ..base(ModelKind::Gcn, PrecisionMode::HalfGnn) },
    ));
    for (model, precision) in [
        (ModelKind::Gcn, PrecisionMode::Float),
        (ModelKind::Gcn, PrecisionMode::HalfGnn),
        (ModelKind::Gat, PrecisionMode::HalfGnn),
        (ModelKind::Gin, PrecisionMode::HalfGnn),
        (ModelKind::Sage, PrecisionMode::I8),
    ] {
        v.push(case(
            format!("loss-scale-128/{}/{}", mname(model), pname(precision)),
            Input::Small,
            TrainConfig { loss_scale: 128.0, ..base(model, precision) },
        ));
    }
    for precision in [PrecisionMode::HalfNaive, PrecisionMode::HalfGnn, PrecisionMode::I8] {
        v.push(case(
            format!("gin-lambda-0.5/{}", pname(precision)),
            Input::Hub,
            TrainConfig { gin_lambda: 0.5, ..base(ModelKind::Gin, precision) },
        ));
    }
    v.push(case(
        "fusion/gat/halfgnn".into(),
        Input::Small,
        TrainConfig { fusion: true, ..base(ModelKind::Gat, PrecisionMode::HalfGnn) },
    ));
    v.push(case(
        "fusion/gat/halfgnn/balanced2/replay".into(),
        Input::Small,
        TrainConfig {
            fusion: true,
            shards: 2,
            partition: PartitionStrategy::DegreeBalanced,
            replay: true,
            ..base(ModelKind::Gat, PrecisionMode::HalfGnn)
        },
    ));
    for (model, precision) in [
        (ModelKind::Gcn, PrecisionMode::HalfGnn),
        (ModelKind::Gat, PrecisionMode::HalfGnn),
        (ModelKind::Gcn, PrecisionMode::I8),
    ] {
        v.push(case(
            format!("tuned/{}/{}", mname(model), pname(precision)),
            Input::Small,
            TrainConfig { tuning: Tuning::Auto, ..base(model, precision) },
        ));
    }
    v
}

/// Fast:4 twins of a few configs.
fn fast_cases() -> Vec<Case> {
    let fast = ExecMode::fast_with_threads(4);
    let twin = |name: &str, input, cfg: TrainConfig| Case {
        name: format!("fast4/{name}"),
        input,
        keep: Keep::LossesAndCounts,
        cfg: TrainConfig { exec: fast, ..cfg },
    };
    vec![
        twin("gcn/halfgnn", Input::Small, base(ModelKind::Gcn, PrecisionMode::HalfGnn)),
        twin("gin/i8", Input::Small, base(ModelKind::Gin, PrecisionMode::I8)),
        twin(
            "gat/halfgnn/balanced2/replay",
            Input::Small,
            TrainConfig {
                shards: 2,
                partition: PartitionStrategy::DegreeBalanced,
                replay: true,
                ..base(ModelKind::Gat, PrecisionMode::HalfGnn)
            },
        ),
        twin(
            "minibatch/sage/halfgnn",
            Input::Small,
            TrainConfig {
                batch_size: Some(64),
                fanout: 4,
                ..base(ModelKind::Sage, PrecisionMode::HalfGnn)
            },
        ),
    ]
}

// ---------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------

fn f32s(v: f32) -> String {
    if v.is_nan() {
        format!("NaN[{:08x}]", v.to_bits())
    } else {
        format!("{v:?}")
    }
}

fn f64s(v: f64) -> String {
    if v.is_nan() {
        format!("NaN[{:016x}]", v.to_bits())
    } else {
        format!("{v:?}")
    }
}

fn join<T>(xs: &[T], f: impl Fn(&T) -> String) -> String {
    xs.iter().map(f).collect::<Vec<_>>().join(" ")
}

fn train_record(r: &TrainReport, keep: Keep) -> String {
    let mut s = String::new();
    let mut put = |k: &str, v: String| writeln!(s, "{k}: {v}").unwrap();
    put("losses", join(&r.losses, |l| f32s(*l)));
    put("final_train_accuracy", f32s(r.final_train_accuracy));
    put("test_accuracy", f32s(r.test_accuracy));
    put("nan_epoch", format!("{:?}", r.nan_epoch));
    put("conversions_per_epoch", r.conversions_per_epoch.to_string());
    put("converted_elems_per_epoch", r.converted_elems_per_epoch.to_string());
    put("kernels_per_epoch", r.kernels_per_epoch.to_string());
    if keep == Keep::LossesAndCounts {
        // Fast breakdowns are ordered by wall time: sort by name instead.
        let mut launches: Vec<_> = r.kernel_breakdown.iter().map(|k| (&k.0, k.1)).collect();
        launches.sort();
        for (name, n) in launches {
            put("kernel", format!("{name} x{n}"));
        }
        return s;
    }
    put("epoch_time_us", f64s(r.epoch_time_us));
    put("replay_epoch_time_us", f64s(r.replay_epoch_time_us));
    put("peak_memory_bytes", r.peak_memory_bytes.to_string());
    put("dram_bytes_per_epoch", r.dram_bytes_per_epoch.to_string());
    for (name, launches, us, dram) in &r.kernel_breakdown {
        put("kernel", format!("{name} x{launches} {}us {dram}B", f64s(*us)));
    }
    for (e, o) in r.overflow_per_epoch.iter().enumerate() {
        let first = match &o.first {
            Some(ev) => {
                format!("'{}' #{} {} {:?}", ev.site, ev.conversion_index, f32s(ev.input), ev.kind)
            }
            None => "none".into(),
        };
        put(
            &format!("overflow[{e}]"),
            format!(
                "conv {} ovf {} inf {} nan {} first {first}",
                o.conversions, o.overflows, o.inf_propagated, o.nan_propagated
            ),
        );
    }
    for (e, q) in r.saturation_per_epoch.iter().enumerate() {
        let first = match &q.first {
            Some(ev) => format!(
                "{:#018x} #{} {} nonfinite={}",
                ev.site,
                ev.index,
                f32s(ev.input),
                ev.nonfinite_input
            ),
            None => "none".into(),
        };
        put(
            &format!("saturation[{e}]"),
            format!(
                "quantized {} saturated {} nonfinite {} first {first}",
                q.quantized, q.saturated, q.nonfinite_inputs
            ),
        );
    }
    put("tuning_counters", format!("{:?}", r.tuning_counters));
    put(
        "comms",
        format!(
            "total {}B halo {}B allreduce {}B {}us serialized {}us overlapped {}us",
            r.comms_bytes_per_epoch,
            r.comms_halo_bytes_per_epoch,
            r.comms_allreduce_bytes_per_epoch,
            f64s(r.comms_time_us_per_epoch),
            f64s(r.comms_serialized_us),
            f64s(r.comms_overlapped_us)
        ),
    );
    for ((a, b), l) in &r.link_breakdown {
        put("link", format!("{a}->{b} {}B {} msgs {}us", l.bytes, l.messages, f64s(l.time_us)));
    }
    put(
        "halo_cache",
        format!(
            "hits {} misses {} saved {}B",
            r.halo_cache_hits, r.halo_cache_misses, r.halo_cache_bytes_saved
        ),
    );
    put(
        "replay",
        match &r.replay {
            Some(x) => {
                format!("nodes {} plans {} saved_cycles {}", x.nodes, x.plans, f64s(x.saved_cycles))
            }
            None => "none".into(),
        },
    );
    put(
        "sampling",
        match &r.sampling {
            Some(x) => format!(
                "batches {} mean_v {} mean_e {} max_v {} max_e {} fanout {} streamed {} \
                 stream_epoch {:?} post_stream_tuning {:?}",
                x.batches_per_epoch,
                f64s(x.mean_batch_vertices),
                f64s(x.mean_batch_edges),
                x.max_batch_vertices,
                x.max_batch_edges,
                x.fanout,
                x.streamed_edges,
                x.stream_epoch,
                x.post_stream_tuning
            ),
            None => "none".into(),
        },
    );
    s
}

fn run_cases(cases: Vec<Case>) -> Vec<(String, String)> {
    let dev = DeviceConfig::a100_like();
    let hub = hub_graph();
    let small = small_graph();
    cases
        .into_iter()
        .map(|c| {
            let data = match c.input {
                Input::Hub => &hub,
                Input::Small => &small,
            };
            let r = train_on(&dev, data, &c.cfg);
            (c.name, train_record(&r, c.keep))
        })
        .collect()
}

/// Serving records: f32 and f16 engines, eager and replayed, over the
/// small graph sharded on two devices with an f16 embedding cache.
fn serve_records() -> Vec<(String, String)> {
    let dev = DeviceConfig::a100_like();
    let data = small_graph();
    let f = data.spec.feat;
    let mut out = Vec::new();
    for (precision, p) in [(PrecisionMode::Float, "f32"), (PrecisionMode::HalfGnn, "f16")] {
        for replay in [false, true] {
            let params = TwoLayerParams::new(f, 8, 4, 9);
            let cfg = ServeConfig {
                precision,
                replay,
                batch_window: if replay { 1 } else { 4 },
                cache_bytes: 2048,
                cache_precision: CachePrecision::F16,
                shards: 2,
                ..ServeConfig::default()
            };
            let mut e = ServeEngine::new(&dev, &data.adj, &data.features, f, params, cfg)
                .expect("valid serving config");
            let mut s = String::new();
            let batch = |s: &mut String, e: &mut ServeEngine, reqs: &[VertexId]| {
                let b: ServedBatch = e.embed(reqs);
                let logits: Vec<String> =
                    b.outputs.iter().map(|row| join(row, |v| f32s(*v))).collect();
                writeln!(
                    s,
                    "embed {reqs:?}: vertices {} replayed {} fetch {}us kernel {}us logits {}",
                    b.batch_vertices,
                    b.replayed,
                    f64s(b.fetch_us),
                    f64s(b.kernel_us),
                    logits.join(" | ")
                )
                .unwrap();
            };
            batch(&mut s, &mut e, &[3, 17, 40]);
            batch(&mut s, &mut e, &[5]);
            batch(&mut s, &mut e, &[5]);
            batch(&mut s, &mut e, &[3, 17, 40]);
            writeln!(s, "insert_edge 1-100: {}", e.insert_edge(1, 100)).unwrap();
            batch(&mut s, &mut e, &[1]);
            let trace: Vec<Request> = (0..16u32)
                .map(|i| Request { vertex: (i * 11) % 24, arrival_us: i as f64 * 3.5 })
                .collect();
            for (i, t) in e.serve_trace(&trace).iter().enumerate() {
                writeln!(
                    s,
                    "trace[{i}]: queue {}us fetch {}us kernel {}us hit {}",
                    f64s(t.queue_us),
                    f64s(t.fetch_us),
                    f64s(t.kernel_us),
                    t.cache_hit
                )
                .unwrap();
            }
            let st = e.stats;
            writeln!(
                s,
                "stats: requests {} hits {} batches {} coalesced {} replayed {} halo {}B \
                 halo {}us kernel {}us max_batch_vertices {} invalidated {}",
                st.requests,
                st.cache_hits,
                st.batches,
                st.coalesced_requests,
                st.replayed_batches,
                st.halo_bytes,
                f64s(st.halo_time_us),
                f64s(st.kernel_time_us),
                st.max_batch_vertices,
                st.invalidated_entries
            )
            .unwrap();
            let mode = if replay { "replay" } else { "eager" };
            out.push((format!("serve/{p}/{mode}"), s));
        }
    }
    out
}

// ---------------------------------------------------------------------
// The fixture.
// ---------------------------------------------------------------------

/// Records of the fixture, by name. A record starts at a `== name` line
/// and runs to the next one.
fn fixture() -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let mut name: Option<String> = None;
    let mut body = String::new();
    for line in FIXTURE.lines() {
        if let Some(n) = line.strip_prefix("== ") {
            if let Some(prev) = name.replace(n.to_string()) {
                map.insert(prev, std::mem::take(&mut body));
            }
        } else if !line.is_empty() {
            body.push_str(line);
            body.push('\n');
        }
    }
    if let Some(prev) = name {
        map.insert(prev, body);
    }
    map
}

/// Compare generated records with the fixture, reporting every differing
/// line of every record.
fn check(records: Vec<(String, String)>) {
    let want = fixture();
    let mut diffs = Vec::new();
    for (name, got) in &records {
        let Some(expected) = want.get(name) else {
            diffs.push(format!("{name}: no record in the fixture"));
            continue;
        };
        let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), expected.lines().collect());
        for i in 0..g.len().max(w.len()) {
            let (gl, wl) =
                (g.get(i).copied().unwrap_or("<none>"), w.get(i).copied().unwrap_or("<none>"));
            if gl != wl {
                diffs.push(format!("{name}:\n  want {wl}\n  got  {gl}"));
            }
        }
    }
    assert!(diffs.is_empty(), "{} golden lines moved:\n{}", diffs.len(), diffs.join("\n"));
}

#[test]
fn every_model_under_every_precision_matches_the_golden_bits() {
    check(run_cases(matrix_cases()));
}

#[test]
fn sharded_and_replayed_runs_match_the_golden_bits() {
    check(run_cases(sharded_cases()));
}

#[test]
fn minibatch_and_single_knob_variants_match_the_golden_bits() {
    check(run_cases(variant_cases()));
}

#[test]
fn fast_twins_match_the_golden_loss_bits_and_counts() {
    check(run_cases(fast_cases()));
}

#[test]
fn serving_matches_the_golden_bits() {
    check(serve_records());
}

#[test]
fn the_fixture_holds_exactly_the_generated_configs() {
    let mut names: Vec<String> = [matrix_cases(), sharded_cases(), variant_cases(), fast_cases()]
        .into_iter()
        .flatten()
        .map(|c| c.name)
        .collect();
    for (precision, replay) in ["f32", "f16"].iter().flat_map(|p| [(p, "eager"), (p, "replay")]) {
        names.push(format!("serve/{precision}/{replay}"));
    }
    names.sort();
    let fixture: Vec<String> = fixture().into_keys().collect();
    assert_eq!(fixture, names);
}
