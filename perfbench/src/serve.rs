//! The serving workload: a half GCN trained in set-up, served from its
//! snapshot on G1 by one closed-loop client. Each op is a burst of
//! requests through `serve_trace` or, every fifth op, an `insert_edge`.
//!
//! The request traffic and cache budget are those of `bench_pr8`, the
//! repository's serving acceptance bench. The burst length and the insert
//! ratio are this benchmark's own, not taken from a measured mix (see
//! README.md).

use crate::layers;
use crate::report::{median, tail, Digest, Report, MIB};
use crate::trace::Tracer;
use crate::{peak_rss_mb, repeat_setup, timed_loop, Args};
use halfgnn_graph::datasets::Dataset;
use halfgnn_graph::VertexId;
use halfgnn_half::slice::{f32_slice_to_half, half_slice_to_f32};
use halfgnn_nn::snapshot::ModelSnapshot;
use halfgnn_nn::trainer::{train_on, ModelKind, PrecisionMode, TrainConfig};
use halfgnn_serve::{CachePrecision, ServeConfig, ServeEngine, ServeStats};
use halfgnn_sim::{latency_stats, synth_trace, DeviceConfig, RequestTiming, TraceConfig};
use halfgnn_tensor::Ops;
use std::path::PathBuf;
use std::time::Instant;

const BURST: usize = 32;
const INSERT_EVERY: u64 = 5;
/// Ops always run, and the prefix every modeled statistic is taken from,
/// so modeled numbers do not depend on how fast the host is.
const MODELED_OPS: usize = 500;
const SNAPSHOT_EPOCHS: usize = 10;
/// Coalescing windows checked against per-request embeds and planned for
/// the inference footprint.
const WINDOWS: u64 = 32;
/// Served test accuracy against the set-up job's. The trainer scores the
/// logits of its last forward, before the last optimizer step; the snapshot
/// holds the weights after it.
const ACCURACY_TOLERANCE: f32 = 0.03;

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        precision: PrecisionMode::HalfGnn,
        batch_window: 8,
        cache_bytes: 32 * 1024,
        cache_precision: CachePrecision::F16,
        seed,
        ..ServeConfig::default()
    }
}

fn burst(seed: u64, op: u64, n: usize) -> Vec<halfgnn_sim::Request> {
    synth_trace(&TraceConfig {
        seed: seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        requests: BURST,
        num_vertices: n,
        mean_gap_us: 40.0,
        hot_fraction: 0.8,
        hot_vertices: 64,
    })
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let dev = DeviceConfig::a100_like();
    let scfg = serve_config(args.seed);
    let dir = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        rep.notes.push(format!("cannot create {}: {e}", dir.display()));
        rep.tally.op("set-up", |c| c.check(false, || "no snapshot directory".into()));
        return rep;
    }
    let snap_path = dir.join(format!("serve-{}.snap", std::process::id()));

    // Set-up: generate G1, train and snapshot the model, build the engine.
    let setup = repeat_setup(tracer, |t| {
        let data = t.span("graph.load", |_| Dataset::cora().load(args.seed));
        let tcfg = TrainConfig {
            model: ModelKind::Gcn,
            precision: PrecisionMode::HalfGnn,
            epochs: SNAPSHOT_EPOCHS,
            seed: args.seed,
            snapshot_path: Some(snap_path.to_string_lossy().into_owned()),
            ..TrainConfig::default()
        };
        let trained = t.span("nn.train_on", |_| train_on(&dev, &data, &tcfg));
        let snap = ModelSnapshot::load(&snap_path);
        std::fs::remove_file(&snap_path).ok();
        let engine = snap.as_ref().map(|s| {
            t.span("serve.from_snapshot", |_| {
                ServeEngine::from_snapshot(
                    &dev,
                    &data.adj,
                    &data.features,
                    data.spec.feat,
                    s,
                    scfg.clone(),
                )
            })
        });
        (data, trained, snap, engine)
    });
    let ((data, trained, snap, engine), setup_s) = setup;
    std::fs::remove_dir(&dir).ok();
    let (Some(snap), Some(Ok(mut engine))) = (snap, engine) else {
        rep.tally.op("set-up", |c| {
            c.check(false, || "snapshot did not load or the engine was refused".into())
        });
        return rep;
    };
    let n = data.num_vertices();
    let picks = layers::edge_picks(n, 4096, args.seed);

    // Timed loop. A traced run traces every other op rather than the second
    // half (as train.rs does), so traced and untraced ops see the cache
    // equally warm and their medians differ by the tracing overhead alone.
    let traced = tracer.on();
    let mut op_ms: Vec<f64> = Vec::new();
    let mut untraced_op_ms: Vec<f64> = Vec::new();
    let mut burst_ms: Vec<f64> = Vec::new();
    let mut requests = 0u64;
    let mut bursts = 0u64;
    let mut inserted: Vec<(VertexId, VertexId)> = Vec::new();
    let mut timings: Vec<RequestTiming> = Vec::new();
    let mut prefix_stats = ServeStats::default();
    let mut digest = Digest::new();
    timed_loop(args.seconds, MODELED_OPS as u64, |op| {
        let on = traced && op % 2 == 1;
        tracer.set_on(on);
        tracer.op = op + 1;
        let is_insert = op % INSERT_EVERY == INSERT_EVERY - 1;
        let trace = if is_insert { Vec::new() } else { burst(args.seed, op, n) };
        let pick = picks[(op / INSERT_EVERY) as usize % picks.len()];
        let t = Instant::now();
        let out = rep.tally.op(if is_insert { "insert" } else { "burst" }, |c| {
            tracer.span("bench.op", |t| {
                if is_insert {
                    t.span("serve.insert_edge", |_| engine.insert_edge(pick.0, pick.1));
                    return Vec::new();
                }
                let timed = t.span("serve.serve_trace", |_| engine.serve_trace(&trace));
                c.check(timed.len() == trace.len(), || {
                    format!("{} of {} requests answered", timed.len(), trace.len())
                });
                c.check(
                    timed.iter().all(|r| r.total_us().is_finite() && r.total_us() > 0.0),
                    || "a request has no finite latency".into(),
                );
                let s = engine.stats;
                c.check(s.cache_hits + s.coalesced_requests == s.requests, || {
                    format!(
                        "{} hits + {} coalesced != {} requests",
                        s.cache_hits, s.coalesced_requests, s.requests
                    )
                });
                timed
            })
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if traced && !on {
            untraced_op_ms.push(ms)
        } else {
            op_ms.push(ms)
        }
        if is_insert {
            inserted.push(pick);
        } else {
            burst_ms.push(ms);
        }
        if let Some(timed) = out {
            requests += timed.len() as u64;
            bursts += u64::from(!is_insert);
            if (op as usize) < MODELED_OPS && !is_insert {
                for r in &timed {
                    digest.f64(r.total_us());
                }
                timings.extend(timed);
            }
        }
        if op as usize + 1 == MODELED_OPS {
            prefix_stats = engine.stats;
        }
    });
    tracer.set_on(traced);
    tracer.op = 0;
    // Before the reference engines below are built; the set-up training
    // has already set the mark (see README.md).
    let rss_mb = peak_rss_mb();

    // Verification: coalesced outputs equal per-request embeds on an engine
    // with the same inserts applied.
    let reference = |inserts: &[(VertexId, VertexId)]| {
        let mut e = ServeEngine::from_snapshot(
            &dev,
            &data.adj,
            &data.features,
            data.spec.feat,
            &snap,
            scfg.clone(),
        )
        .expect("the configuration was accepted in set-up");
        for &(u, v) in inserts {
            e.insert_edge(u, v);
        }
        e
    };
    let windows: Vec<Vec<VertexId>> = (0..WINDOWS)
        .map(|w| {
            burst(args.seed, w * 7, n).iter().take(scfg.batch_window).map(|r| r.vertex).collect()
        })
        .collect();
    let mut solo = tracer.span("bench.verify", |_| reference(&inserted));
    rep.tally.op("cached embeddings equal fresh per-request embeds", |c| {
        let cached: Vec<(VertexId, Vec<f32>)> =
            (0..n as VertexId).filter_map(|v| Some((v, engine.cache().peek(v)?))).collect();
        let stale = cached
            .iter()
            .filter(|(v, hit)| {
                let fresh = half_slice_to_f32(&f32_slice_to_half(&solo.embed(&[*v]).outputs[0]));
                hit.len() != fresh.len()
                    || hit.iter().zip(&fresh).any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .count();
        c.check(stale == 0, || {
            format!("{stale} of {} cached embeddings differ from a fresh embed", cached.len())
        });
    });
    rep.tally.op("coalesced outputs equal per-request embeds", |c| {
        for w in &windows {
            let batched = engine.embed(w).outputs;
            for (v, out) in w.iter().zip(batched) {
                let alone = solo.embed(&[*v]).outputs.remove(0);
                let same = out.len() == alone.len()
                    && out.iter().zip(&alone).all(|(a, b)| a.to_bits() == b.to_bits());
                c.check(same, || {
                    format!("vertex {v}: coalesced output differs from its own embed")
                });
            }
        }
    });

    // Quality and footprint of the served model on the set-up graph.
    let mut fresh = reference(&[]);
    let test: Vec<VertexId> = (0..n as VertexId).filter(|&v| data.split.test[v as usize]).collect();
    let width = snap.classes;
    let mut logits = vec![0.0f32; n * width];
    for chunk in test.chunks(scfg.batch_window) {
        for (v, out) in chunk.iter().zip(fresh.embed(chunk).outputs) {
            out.iter().for_each(|x| {
                digest.word(u64::from(x.to_bits()));
            });
            logits[*v as usize * width..][..width].copy_from_slice(&out);
        }
    }
    let accuracy = Ops::accuracy(&logits, &data.labels, &data.split.test, width);
    rep.tally.op("served accuracy matches the set-up job", |c| {
        c.check((accuracy - trained.test_accuracy).abs() <= ACCURACY_TOLERANCE, || {
            format!("served {accuracy} vs trained {}", trained.test_accuracy)
        });
    });
    let peak_bytes = windows
        .iter()
        .map(|w| {
            let f = fresh.inference_footprint(w);
            f.peak_bytes + f.external_bytes
        })
        .max()
        .unwrap_or(0);
    for l in &trained.losses {
        digest.word(u64::from(l.to_bits()));
    }
    digest.word(peak_bytes as u64);
    let s = prefix_stats;
    digest
        .word(s.requests)
        .word(s.cache_hits)
        .word(s.batches)
        .word(s.invalidated_entries)
        .f64(s.kernel_time_us);
    rep.digest = Some(digest.finish());

    let ops = op_ms.len();
    if !traced {
        rep.put("setup_s", "s", median(&setup_s), format!("median of {} set-ups", setup_s.len()));
        rep.put(
            "op_wall_ms_p50",
            "ms",
            median(&op_ms),
            format!("median of {ops} ops (bursts of {BURST} and inserts)"),
        );
        rep.put(
            "throughput_per_s",
            "1/s",
            requests as f64 / bursts.max(1) as f64 / median(&burst_ms) * 1e3,
            format!("requests per burst / median wall of {} bursts", burst_ms.len()),
        );
        rep.put(
            "modeled_op_us",
            "us",
            timings.iter().map(RequestTiming::total_us).sum::<f64>() / timings.len().max(1) as f64,
            format!(
                "mean modeled latency of {} requests in the first {MODELED_OPS} ops",
                timings.len()
            ),
        );
        rep.put(
            "modeled_peak_mb",
            "MiB",
            peak_bytes as f64 / MIB,
            format!("largest arena-planned inference footprint of {WINDOWS} windows"),
        );
        rep.put(
            "test_accuracy",
            "fraction",
            f64::from(accuracy),
            format!("Ops::accuracy of served logits, {} test vertices", test.len()),
        );
        rep.put(
            "host_peak_rss_mb",
            "MiB",
            rss_mb,
            "VmHWM after the timed loop, set-up training included",
        );
        rep.put(
            "ok_share",
            "fraction",
            1.0 - rep.tally.failed_share(),
            format!("{} ops attempted", rep.tally.attempted),
        );
        return rep;
    }

    let embed_ms = median(
        &(0..5)
            .map(|_| {
                let t = Instant::now();
                tracer.span("serve.embed", |_| engine.embed(&windows[0]));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>(),
    );
    let (spmm_half, spmm_f32) = layers::spmm_calls_ms(tracer, &dev, &data.adj, 64);
    let (to_half_ns, to_f32_ns) = layers::conversion_ns_per_elem(tracer, &data.features);
    let launch_us = layers::launch_overhead_us(
        tracer,
        &dev.clone().with_exec(halfgnn_sim::ExecMode::fast_with_threads(2)),
    );
    let lat = latency_stats(&timings, 0.0);

    rep.put(
        "graph.load_ms",
        "ms",
        median(&tracer.durations_ms("graph.load")),
        "span on Dataset::load",
    );
    rep.absent("graph.partition_ms", "ms", "single device");
    rep.absent("graph.sample_us_per_batch", "us", "serving coalesces k-hop balls, no sampler");
    rep.absent("graph.batch_vertices_mean", "count", "no sampler");
    rep.absent("graph.batch_edges_mean", "count", "no sampler");
    let inserts: Vec<f64> =
        tracer.durations_ms("serve.insert_edge").iter().map(|ms| ms * 1e3).collect();
    rep.put(
        "graph.delta_insert_us",
        "us",
        median(&inserts),
        format!("span on ServeEngine::insert_edge, {} inserts", inserts.len()),
    );
    rep.absent("nn.prepare_graph_ms", "ms", "the engine prepares a view per batch");
    rep.put(
        "nn.job_wall_s",
        "s",
        median(&tracer.durations_ms("nn.train_on")) / 1e3,
        "span on the set-up train_on",
    );
    for (name, unit) in [
        ("nn.unattributed_share", "fraction"),
        ("nn.float_twin_epoch_ms", "ms"),
        ("nn.dist.halo_mb_per_epoch", "MiB"),
        ("nn.dist.allreduce_mb_per_epoch", "MiB"),
        ("nn.dist.halo_cache_hit_rate", "fraction"),
        ("nn.dist.serialized_comms_us", "us"),
        ("nn.dist.exposed_comms_us", "us"),
        ("kernels.spmm_wall_ms_per_epoch", "ms"),
        ("kernels.sddmm_wall_ms_per_epoch", "ms"),
        ("kernels.edge_ops_wall_ms_per_epoch", "ms"),
        ("kernels.launches_per_epoch", "count"),
        ("kernels.spmm_modeled_us", "us"),
        ("kernels.sddmm_modeled_us", "us"),
        ("kernels.dram_mb_per_epoch", "MiB"),
        ("half.converted_elems_per_epoch", "count"),
        ("half.nonfinite_per_epoch", "count"),
        ("tensor.gemm_calls_per_epoch", "count"),
        ("tensor.gemm_ms_per_epoch", "ms"),
        ("sim.charge_share", "fraction"),
        ("sim.thread_speedup", "ratio"),
        ("tune.evaluations", "count"),
        ("tune.hits", "count"),
        ("tune.misses", "count"),
        ("tune.hit_rate", "fraction"),
        ("tune.cost_ms_per_job", "ms"),
        ("exec.captured_launches", "count"),
        ("exec.saved_us_per_epoch", "us"),
        ("exec.arena_peak_mb", "MiB"),
    ] {
        rep.absent(
            name,
            unit,
            "no training epoch in the timed loop; serving is single-device, Sim, untuned, eager",
        );
    }
    rep.put("kernels.spmm_half_call_ms", "ms", spmm_half, "isolated gcn_agg_half, width 64");
    rep.put("kernels.spmm_f32_call_ms", "ms", spmm_f32, "isolated gcn_agg_f32, width 64");
    rep.put("kernels.spmm_half_over_f32", "ratio", spmm_half / spmm_f32, "isolated calls");
    rep.put(
        "half.to_half_ns_per_elem",
        "ns",
        to_half_ns,
        "isolated f32_slice_to_half on the feature table",
    );
    rep.put(
        "half.to_f32_ns_per_elem",
        "ns",
        to_f32_ns,
        "isolated half_slice_to_f32 on the feature table",
    );
    rep.put("sim.launch_overhead_us", "us", launch_us, "isolated empty launch, Fast:2");
    let batches = s.batches.max(1) as f64;
    rep.put(
        "serve.cache_hit_rate",
        "fraction",
        s.cache_hits as f64 / s.requests.max(1) as f64,
        format!("ServeStats after {MODELED_OPS} ops"),
    );
    rep.put(
        "serve.invalidated_entries",
        "count",
        s.invalidated_entries as f64,
        format!("ServeStats after {MODELED_OPS} ops"),
    );
    rep.put(
        "serve.batches",
        "count",
        s.batches as f64,
        format!("ServeStats after {MODELED_OPS} ops"),
    );
    rep.put(
        "serve.mean_batch_requests",
        "count",
        s.coalesced_requests as f64 / batches,
        "coalesced requests per batch",
    );
    rep.put(
        "serve.max_batch_vertices",
        "count",
        s.max_batch_vertices as f64,
        "largest coalesced subgraph",
    );
    rep.put(
        "serve.embed_ms",
        "ms",
        embed_ms,
        format!("isolated embed of {} vertices", windows[0].len()),
    );
    rep.put(
        "serve.kernel_modeled_us",
        "us",
        s.kernel_time_us / batches,
        "modeled kernel time per batch",
    );
    rep.put(
        "serve.halo_modeled_us",
        "us",
        s.halo_time_us / batches,
        "modeled halo time per batch (single device)",
    );
    rep.put("serve.modeled_p50_us", "us", lat.p50_us, format!("{} requests", lat.requests));
    match tail(&timings.iter().map(RequestTiming::total_us).collect::<Vec<_>>(), 0.99) {
        Some(p99) => {
            rep.put("serve.modeled_p99_us", "us", p99, format!("{} requests", lat.requests))
        }
        None => rep.absent("serve.modeled_p99_us", "us", "fewer than 10 requests beyond p99"),
    }
    let all_ops: Vec<f64> = untraced_op_ms.iter().chain(&op_ms).copied().collect();
    match tail(&all_ops, 0.99) {
        Some(p99) => rep.put(
            "serve.op_wall_ms_p99",
            "ms",
            p99,
            format!("{} ops, traced and untraced", all_ops.len()),
        ),
        None => rep.absent("serve.op_wall_ms_p99", "ms", "fewer than 10 ops beyond p99"),
    }
    crate::trace_metrics(&mut rep, tracer, median(&op_ms) - median(&untraced_op_ms));
    rep
}

/// The serving metrics, on a training workload.
pub fn absent_serving(rep: &mut Report) {
    for (name, unit) in [
        ("serve.cache_hit_rate", "fraction"),
        ("serve.invalidated_entries", "count"),
        ("serve.batches", "count"),
        ("serve.mean_batch_requests", "count"),
        ("serve.max_batch_vertices", "count"),
        ("serve.embed_ms", "ms"),
        ("serve.kernel_modeled_us", "us"),
        ("serve.halo_modeled_us", "us"),
        ("serve.modeled_p50_us", "us"),
        ("serve.modeled_p99_us", "us"),
        ("serve.op_wall_ms_p99", "ms"),
    ] {
        rep.absent(name, unit, "training workload");
    }
}
