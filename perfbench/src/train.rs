//! The three training workloads. One op is one `train_on` job; the op
//! wall of end-to-end reporting is the job wall divided by its epochs.

use crate::layers::{self, Gemm};
use crate::report::{median, Checks, Digest, Report, Tally, MIB};
use crate::trace::Tracer;
use crate::{peak_rss_mb, repeat_setup, timed_loop, Args};
use halfgnn_graph::datasets::{Dataset, LoadedDataset};
use halfgnn_graph::partition;
use halfgnn_nn::graphdata::GraphView;
use halfgnn_nn::trainer::{
    train_on, ExecMode, ModelKind, PartitionStrategy, PrecisionMode, Topology, TrainConfig,
    TrainReport, Tuning,
};
use halfgnn_sim::DeviceConfig;
use std::hint::black_box;
use std::time::Instant;

/// Test-accuracy tolerance of a half job against its float twin.
const PARITY_TOLERANCE: f32 = 0.03;

pub struct Workload {
    pub name: &'static str,
    dataset: fn() -> Dataset,
    /// The timed job's configuration for a seed.
    config: fn(u64) -> TrainConfig,
    /// Check test accuracy against an untimed float twin.
    parity: bool,
    /// Check loss bits against an untimed single-device, eager, Sim job.
    single_device_reference: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "gcn-full-half",
        dataset: Dataset::cora,
        config: |seed| TrainConfig {
            model: ModelKind::Gcn,
            precision: PrecisionMode::HalfGnn,
            epochs: 20,
            seed,
            ..TrainConfig::default()
        },
        parity: true,
        single_device_reference: false,
    },
    Workload {
        name: "gat-sharded-float",
        dataset: Dataset::pubmed,
        config: |seed| TrainConfig {
            model: ModelKind::Gat,
            precision: PrecisionMode::Float,
            epochs: 20,
            seed,
            shards: 4,
            topology: Topology::Ring,
            partition: PartitionStrategy::parse("1p5d").expect("1p5d is a partition strategy"),
            replay: true,
            exec: ExecMode::fast_with_threads(2),
            ..TrainConfig::default()
        },
        parity: false,
        single_device_reference: true,
    },
    Workload {
        name: "sage-minibatch-stream",
        dataset: Dataset::amazon,
        config: |seed| TrainConfig {
            model: ModelKind::Sage,
            precision: PrecisionMode::HalfGnn,
            epochs: 2,
            seed,
            batch_size: Some(128),
            fanout: 3,
            stream_edges: 200,
            tuning: Tuning::Auto,
            exec: ExecMode::fast_with_threads(2),
            ..TrainConfig::default()
        },
        parity: false,
        single_device_reference: false,
    },
];

struct Job {
    report: TrainReport,
    wall_s: f64,
}

fn job(tracer: &mut Tracer, dev: &DeviceConfig, data: &LoadedDataset, cfg: &TrainConfig) -> Job {
    let t = Instant::now();
    let report = tracer.span("nn.train_on", |_| train_on(dev, data, cfg));
    Job { report, wall_s: t.elapsed().as_secs_f64() }
}

/// Run `cfg` once as a counted op outside the timed loop.
fn untimed(
    tally: &mut Tally,
    tracer: &mut Tracer,
    what: &str,
    dev: &DeviceConfig,
    data: &LoadedDataset,
    cfg: &TrainConfig,
) -> Option<Job> {
    tally.op(what, |c| {
        let j = tracer.span("bench.verify", |t| job(t, dev, data, cfg));
        check_finite(c, &j.report);
        j
    })
}

fn check_finite(c: &mut Checks, r: &TrainReport) {
    c.check(r.losses.iter().all(|l| l.is_finite()), || format!("non-finite loss {:?}", r.losses));
}

fn same_loss_bits(a: &TrainReport, b: &TrainReport) -> bool {
    a.losses.len() == b.losses.len()
        && a.losses.iter().zip(&b.losses).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Hash over every modeled statistic of a Sim report plus the loss bits of
/// `losses_of`, which a Fast job must share with its Sim twin.
fn modeled_digest(m: &TrainReport, losses_of: &TrainReport) -> u64 {
    let mut d = Digest::new();
    d.f64(m.epoch_time_us).f64(m.replay_epoch_time_us);
    for w in [
        m.peak_memory_bytes,
        m.dram_bytes_per_epoch,
        m.comms_bytes_per_epoch,
        m.comms_halo_bytes_per_epoch,
        m.comms_allreduce_bytes_per_epoch,
    ] {
        d.word(w);
    }
    d.f64(m.comms_time_us_per_epoch).f64(m.comms_serialized_us).f64(m.comms_overlapped_us);
    d.word(m.halo_cache_hits)
        .word(m.halo_cache_misses)
        .word(m.conversions_per_epoch)
        .word(m.converted_elems_per_epoch);
    for (name, launches, us, dram) in &m.kernel_breakdown {
        name.bytes().for_each(|b| {
            d.word(u64::from(b));
        });
        d.word(*launches as u64).f64(*us).word(*dram);
    }
    // Replay byte counts are left out: the capture identifies buffers by
    // address, so they differ between processes (see README.md).
    if let Some(r) = m.replay {
        d.word(r.nodes as u64).word(r.plans as u64).f64(r.saved_cycles);
    }
    if let Some(t) = m.tuning_counters {
        d.word(t.hits).word(t.misses).word(t.evaluations);
    }
    for l in &losses_of.losses {
        d.word(u64::from(l.to_bits()));
    }
    d.word(u64::from(losses_of.test_accuracy.to_bits()));
    d.finish()
}

/// Edges one epoch processes: every nnz in full batch, the sampled batch
/// edges in mini-batch.
fn edges_per_epoch(data: &LoadedDataset, r: &TrainReport) -> f64 {
    match &r.sampling {
        Some(s) => s.mean_batch_edges * s.batches_per_epoch as f64,
        None => data.num_edges() as f64,
    }
}

/// Time per kernel family in one epoch, from a kernel breakdown (host wall
/// under Fast, modeled under Sim): (spmm, sddmm, edge ops) ms and total
/// launches.
fn families(r: &TrainReport) -> ([f64; 3], f64) {
    let mut ms = [0.0; 3];
    let mut launches = 0.0;
    for (name, n, us, _) in &r.kernel_breakdown {
        launches += *n as f64;
        let family = if name.contains("spmm") {
            0
        } else if name.contains("sddmm") {
            1
        } else if name.starts_with("edge_") {
            2
        } else {
            continue;
        };
        ms[family] += us / 1e3;
    }
    (ms, launches)
}

/// The dense GEMMs of one training step, as the step functions of
/// `halfgnn-nn` issue them for a two-layer model over `r` rows.
fn step_gemms(model: ModelKind, r: usize, f: usize, h: usize, c: usize) -> Vec<Gemm> {
    let g = |m, k, n, ta, tb| Gemm { m, k, n, ta, tb };
    match model {
        ModelKind::Gcn => {
            vec![
                g(r, f, h, false, false),
                g(r, h, c, false, false),
                g(h, r, c, true, false),
                g(r, c, h, false, true),
                g(f, r, h, true, false),
            ]
        }
        ModelKind::Gat => [(f, h), (h, c)]
            .into_iter()
            .flat_map(|(fi, fo)| {
                [
                    g(r, fi, fo, false, false),
                    g(r, fo, 1, false, false),
                    g(r, fo, 1, false, false),
                    g(r, 1, fo, false, true),
                    g(r, 1, fo, false, true),
                    g(fo, r, 1, true, false),
                    g(fo, r, 1, true, false),
                    g(fi, r, fo, true, false),
                    g(r, fo, fi, false, true),
                ]
            })
            .collect(),
        ModelKind::Sage => {
            let mut v = vec![g(r, f, h, false, false); 2];
            v.extend([g(r, h, c, false, false); 2]);
            v.extend([g(h, r, c, true, false); 2]);
            v.extend([g(r, c, h, false, true); 2]);
            v.extend([g(f, r, h, true, false); 2]);
            v
        }
        _ => Vec::new(),
    }
}

fn gemm_calls(r: &TrainReport) -> f64 {
    r.kernel_breakdown.iter().filter(|k| k.0.contains("gemm")).map(|k| k.1 as f64).sum()
}

pub fn run(w: &Workload, args: &Args, tracer: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let base = DeviceConfig::a100_like();
    let cfg = (w.config)(args.seed);
    let sim_cfg = TrainConfig { exec: ExecMode::Sim, ..cfg.clone() };
    let epochs = cfg.epochs as f64;

    // Set-up: generate the graph and prepare it as a caller would.
    let (data, setup_s) = repeat_setup(tracer, |t| {
        let data = t.span("graph.load", |_| (w.dataset)().load(args.seed));
        t.span("nn.prepare_graph", |_| black_box(GraphView::full(&data.adj)));
        if cfg.shards > 1 {
            t.span("graph.partition", |_| {
                black_box(partition(&data.adj, cfg.shards, cfg.effective_partition()))
            });
        }
        data
    });

    // Timed loop. A traced run spends half its time untraced, so the
    // difference between the halves is the tracing overhead.
    let mut jobs: Vec<Job> = Vec::new();
    let mut first_traced = 0;
    let traced = tracer.on();
    let halves: &[(bool, f64)] =
        if traced { &[(false, 0.5), (true, 0.5)] } else { &[(false, 1.0)] };
    for &(on, share) in halves {
        tracer.set_on(on);
        first_traced = jobs.len();
        timed_loop(args.seconds * share, if traced { 1 } else { 2 }, |i| {
            tracer.op = i + 1;
            let j = rep.tally.op("timed job", |c| {
                let j = tracer.span("bench.op", |t| job(t, &base, &data, &cfg));
                check_finite(c, &j.report);
                j
            });
            jobs.extend(j);
        });
    }
    tracer.set_on(traced);
    tracer.op = 0;
    // Before the verification jobs, whose peaks are not the workload's.
    let rss_mb = peak_rss_mb();
    if jobs.len() == first_traced {
        rep.notes.push("no timed job completed".into());
        return rep;
    }

    // Verification: the Sim twin gives the modeled statistics of a Fast
    // workload; references give the bits every timed job must reproduce.
    let fast = cfg.exec.is_fast();
    let sim_twin = if fast {
        untimed(&mut rep.tally, tracer, "Sim verification job", &base, &data, &sim_cfg)
    } else {
        None
    };
    let reference = w
        .single_device_reference
        .then(|| {
            let r = TrainConfig {
                shards: 1,
                partition: PartitionStrategy::Contiguous,
                replay: false,
                ..sim_cfg.clone()
            };
            untimed(&mut rep.tally, tracer, "single-device reference job", &base, &data, &r)
        })
        .flatten();
    let float_twin = w
        .parity
        .then(|| {
            let f = TrainConfig { precision: PrecisionMode::Float, ..sim_cfg.clone() };
            untimed(&mut rep.tally, tracer, "float twin job", &base, &data, &f)
        })
        .flatten();
    let modeled = sim_twin.as_ref().map_or(&jobs[0].report, |j| &j.report);
    let digest = modeled_digest(modeled, &jobs[0].report);
    rep.digest = Some(digest);
    rep.tally.op("timed jobs match their references", |c| {
        for (i, j) in jobs.iter().enumerate() {
            if let Some(s) = &sim_twin {
                c.check(same_loss_bits(&j.report, &s.report), || {
                    format!("job {i}: Fast loss bits differ from Sim")
                });
            }
            if let Some(r) = &reference {
                c.check(same_loss_bits(&j.report, &r.report), || {
                    format!("job {i}: loss bits differ from the single-device eager Sim job")
                });
            }
            if let Some(f) = &float_twin {
                let gap = (j.report.test_accuracy - f.report.test_accuracy).abs();
                c.check(gap <= PARITY_TOLERANCE, || {
                    format!(
                        "job {i}: test accuracy {} vs float {}",
                        j.report.test_accuracy, f.report.test_accuracy
                    )
                });
            }
            if !fast {
                c.check(modeled_digest(&j.report, &j.report) == digest, || {
                    format!("job {i}: modeled statistics differ from job 0")
                });
            }
        }
    });

    // Untraced runs report every job; traced runs the traced half.
    let timed = &jobs[first_traced..];
    let op_ms: Vec<f64> = timed.iter().map(|j| j.wall_s * 1e3 / epochs).collect();
    let n = timed.len();
    if !traced {
        let edges = edges_per_epoch(&data, &jobs[0].report) * epochs * n as f64;
        let wall: f64 = timed.iter().map(|j| j.wall_s).sum();
        let steady = if cfg.replay { modeled.replay_epoch_time_us } else { modeled.epoch_time_us };
        rep.put("setup_s", "s", median(&setup_s), format!("median of {} set-ups", setup_s.len()));
        rep.put(
            "op_wall_ms_p50",
            "ms",
            median(&op_ms),
            format!("median over {n} jobs of job wall / {epochs} epochs"),
        );
        rep.put(
            "throughput_per_s",
            "1/s",
            edges / wall,
            format!("edges processed per second over {n} jobs"),
        );
        rep.put(
            "modeled_op_us",
            "us",
            steady,
            if cfg.replay { "modeled replay epoch" } else { "modeled epoch 0" },
        );
        rep.put(
            "modeled_peak_mb",
            "MiB",
            modeled.peak_memory_bytes as f64 / MIB,
            "modeled device peak",
        );
        rep.put(
            "test_accuracy",
            "fraction",
            f64::from(jobs[0].report.test_accuracy),
            format!("after {epochs} epochs"),
        );
        rep.put("host_peak_rss_mb", "MiB", rss_mb, "VmHWM after the timed loop");
        rep.put(
            "ok_share",
            "fraction",
            1.0 - rep.tally.failed_share(),
            format!("{} ops attempted", rep.tally.attempted),
        );
        return rep;
    }

    // Traced run: twins at other execution settings, isolated layer calls.
    let twin = |tally: &mut Tally, tracer: &mut Tracer, what: &str, c: &TrainConfig| {
        let j = untimed(tally, tracer, what, &base, &data, c);
        if let Some(j) = &j {
            tally.op(what, |chk| {
                chk.check(same_loss_bits(&j.report, &jobs[0].report), || {
                    format!("{what}: loss bits differ")
                })
            });
        }
        j
    };
    let fast1 = twin(
        &mut rep.tally,
        tracer,
        "Fast:1 twin",
        &TrainConfig { exec: ExecMode::fast_with_threads(1), ..cfg.clone() },
    );
    let fast2 = if fast {
        None
    } else {
        twin(
            &mut rep.tally,
            tracer,
            "Fast:2 twin",
            &TrainConfig { exec: ExecMode::fast_with_threads(2), ..cfg.clone() },
        )
    };
    let untuned = (cfg.tuning != Tuning::Off)
        .then(|| {
            untimed(
                &mut rep.tally,
                tracer,
                "tuning-off twin",
                &base,
                &data,
                &TrainConfig { tuning: Tuning::Off, ..cfg.clone() },
            )
        })
        .flatten();
    if let Some(f1) = &fast1 {
        rep.tally.op("modeled digest is independent of thread count", |c| {
            c.check(modeled_digest(modeled, &f1.report) == digest, || {
                "Fast:1 digest differs".into()
            });
        });
    }
    let job_wall = median(&timed.iter().map(|j| j.wall_s).collect::<Vec<_>>());
    let sim_wall = sim_twin.as_ref().map_or(job_wall, |j| j.wall_s);
    let fast2_wall = fast2.as_ref().map_or(job_wall, |j| j.wall_s);
    // Kernel host wall: the timed Fast job, or the Fast:1 twin of a Sim workload.
    let fast_job = if fast {
        Some((&jobs[0].report, job_wall))
    } else {
        fast1.as_ref().map(|j| (&j.report, j.wall_s))
    };
    let f_in = data.spec.feat;
    let half = cfg.precision.is_half();
    let fast_dev =
        base.clone().with_exec(if fast { cfg.exec } else { ExecMode::fast_with_threads(1) });
    let rows = jobs[0]
        .report
        .sampling
        .as_ref()
        .map_or(data.num_vertices() as f64, |s| s.mean_batch_vertices);
    // Dense GEMMs run outside every launch timer: time the step's GEMMs in
    // isolation, provided they still account for every call the job made.
    let classes = if half { data.spec.classes.next_multiple_of(2) } else { data.spec.classes };
    let steps = jobs[0].report.sampling.as_ref().map_or(1, |s| s.batches_per_epoch);
    let shapes = step_gemms(cfg.model, rows.round() as usize, f_in, cfg.hidden, classes);
    let gemm_ms_per_epoch =
        ((shapes.len() * steps) as f64 == gemm_calls(&jobs[0].report)).then(|| {
            let ms: f64 = shapes.iter().map(|&g| layers::gemm_ms(tracer, &fast_dev, half, g)).sum();
            ms * steps as f64
        });
    let (to_half_ns, to_f32_ns) = layers::conversion_ns_per_elem(tracer, &data.features);
    let spmm_dev = base.clone().with_exec(cfg.exec);
    let (spmm_half, spmm_f32) = layers::spmm_calls_ms(tracer, &spmm_dev, &data.adj, 64);
    let launch_us =
        layers::launch_overhead_us(tracer, &base.clone().with_exec(ExecMode::fast_with_threads(2)));

    let r0 = &jobs[0].report;
    rep.put(
        "graph.load_ms",
        "ms",
        median(&tracer.durations_ms("graph.load")),
        "span on Dataset::load",
    );
    match cfg.shards {
        1 => rep.absent("graph.partition_ms", "ms", "single device"),
        _ => rep.put(
            "graph.partition_ms",
            "ms",
            median(&tracer.durations_ms("graph.partition")),
            "span on partition",
        ),
    }
    match (&r0.sampling, cfg.batch_size) {
        (Some(s), Some(b)) => {
            let us = layers::sample_us_per_batch(
                tracer,
                &data.adj,
                &data.split.train,
                b,
                cfg.fanout,
                cfg.seed,
            );
            rep.put(
                "graph.sample_us_per_batch",
                "us",
                us,
                format!("isolated sampler, batch {b}, fanout {}", cfg.fanout),
            );
            rep.put("graph.batch_vertices_mean", "count", s.mean_batch_vertices, "SamplingSummary");
            rep.put("graph.batch_edges_mean", "count", s.mean_batch_edges, "SamplingSummary");
        }
        _ => {
            rep.absent("graph.sample_us_per_batch", "us", "full batch");
            rep.absent("graph.batch_vertices_mean", "count", "full batch");
            rep.absent("graph.batch_edges_mean", "count", "full batch");
        }
    }
    if cfg.stream_edges > 0 {
        let picks = layers::edge_picks(data.num_vertices(), cfg.stream_edges, args.seed);
        rep.put(
            "graph.delta_insert_us",
            "us",
            layers::delta_insert_us(tracer, &data.adj, &picks),
            "isolated DeltaCsr::insert_undirected",
        );
    } else {
        rep.absent("graph.delta_insert_us", "us", "no edge stream");
    }
    rep.put(
        "nn.prepare_graph_ms",
        "ms",
        median(&tracer.durations_ms("nn.prepare_graph")),
        "span on GraphView::full",
    );
    rep.put("nn.job_wall_s", "s", job_wall, format!("median of {n} traced train_on spans"));
    match &float_twin {
        Some(f) => rep.put(
            "nn.float_twin_epoch_ms",
            "ms",
            f.wall_s * 1e3 / epochs,
            "untimed float twin job wall / epochs",
        ),
        None => rep.absent("nn.float_twin_epoch_ms", "ms", "no float twin"),
    }
    match fast_job {
        Some((r, wall)) => {
            let (fam, launches) = families(r);
            rep.put("kernels.spmm_wall_ms_per_epoch", "ms", fam[0], "Fast kernel_breakdown");
            rep.put("kernels.sddmm_wall_ms_per_epoch", "ms", fam[1], "Fast kernel_breakdown");
            rep.put("kernels.edge_ops_wall_ms_per_epoch", "ms", fam[2], "Fast kernel_breakdown");
            rep.put("kernels.launches_per_epoch", "count", launches, "Fast kernel_breakdown");
            match gemm_ms_per_epoch {
                Some(gemm_ms) => {
                    let kernel_ms: f64 = r.kernel_breakdown.iter().map(|k| k.2 / 1e3).sum();
                    let convert_ms = r.converted_elems_per_epoch as f64 * to_half_ns / 1e6;
                    rep.put(
                        "nn.unattributed_share",
                        "fraction",
                        1.0 - (kernel_ms + gemm_ms + convert_ms) / (wall * 1e3 / epochs),
                        "1 - (kernel + isolated GEMM + conversion ms) / epoch ms",
                    );
                }
                None => rep.absent("nn.unattributed_share", "fraction", "GEMM time unknown"),
            }
        }
        None => {
            for (name, unit) in [
                ("nn.unattributed_share", "fraction"),
                ("kernels.spmm_wall_ms_per_epoch", "ms"),
                ("kernels.sddmm_wall_ms_per_epoch", "ms"),
                ("kernels.edge_ops_wall_ms_per_epoch", "ms"),
                ("kernels.launches_per_epoch", "count"),
            ] {
                rep.absent(name, unit, "the Fast:1 twin failed");
            }
        }
    }
    let m = modeled;
    if cfg.shards > 1 {
        let hits = m.halo_cache_hits as f64;
        rep.put(
            "nn.dist.halo_mb_per_epoch",
            "MiB",
            m.comms_halo_bytes_per_epoch as f64 / MIB,
            "TrainReport",
        );
        rep.put(
            "nn.dist.allreduce_mb_per_epoch",
            "MiB",
            m.comms_allreduce_bytes_per_epoch as f64 / MIB,
            "TrainReport",
        );
        rep.put(
            "nn.dist.halo_cache_hit_rate",
            "fraction",
            hits / (hits + m.halo_cache_misses as f64).max(1.0),
            "last epoch",
        );
        rep.put("nn.dist.serialized_comms_us", "us", m.comms_serialized_us, "modeled, epoch 0");
        rep.put(
            "nn.dist.exposed_comms_us",
            "us",
            m.comms_overlapped_us,
            "modeled, epoch 0, overlapped",
        );
    } else {
        for (name, unit) in [
            ("nn.dist.halo_mb_per_epoch", "MiB"),
            ("nn.dist.allreduce_mb_per_epoch", "MiB"),
            ("nn.dist.halo_cache_hit_rate", "fraction"),
            ("nn.dist.serialized_comms_us", "us"),
            ("nn.dist.exposed_comms_us", "us"),
        ] {
            rep.absent(name, unit, "single device");
        }
    }
    let (sim_fam, _) = families(m);
    rep.put("kernels.spmm_modeled_us", "us", sim_fam[0] * 1e3, "Sim kernel_breakdown");
    rep.put("kernels.sddmm_modeled_us", "us", sim_fam[1] * 1e3, "Sim kernel_breakdown");
    rep.put("kernels.dram_mb_per_epoch", "MiB", m.dram_bytes_per_epoch as f64 / MIB, "modeled");
    rep.put("kernels.spmm_half_call_ms", "ms", spmm_half, "isolated gcn_agg_half, width 64");
    rep.put("kernels.spmm_f32_call_ms", "ms", spmm_f32, "isolated gcn_agg_f32, width 64");
    rep.put("kernels.spmm_half_over_f32", "ratio", spmm_half / spmm_f32, "isolated calls");
    rep.put(
        "half.converted_elems_per_epoch",
        "count",
        r0.converted_elems_per_epoch as f64,
        "TrainReport",
    );
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
    let nonfinite: f64 =
        m.overflow_per_epoch.iter().map(|s| s.nonfinite() as f64).sum::<f64>() / epochs;
    rep.put("half.nonfinite_per_epoch", "count", nonfinite, "Sim overflow provenance");
    rep.put("tensor.gemm_calls_per_epoch", "count", gemm_calls(r0), "kernel_breakdown");
    match gemm_ms_per_epoch {
        Some(ms) => rep.put(
            "tensor.gemm_ms_per_epoch",
            "ms",
            ms,
            format!("{} isolated GEMMs per step x {steps} steps", shapes.len()),
        ),
        None => rep.absent(
            "tensor.gemm_ms_per_epoch",
            "ms",
            "the step's GEMM shapes no longer match the job's GEMM calls",
        ),
    }
    match &fast1 {
        Some(f1) => {
            rep.put(
                "sim.charge_share",
                "fraction",
                (sim_wall - f1.wall_s) / sim_wall,
                "(Sim - Fast:1 job wall) / Sim job wall",
            );
            rep.put(
                "sim.thread_speedup",
                "ratio",
                f1.wall_s / fast2_wall,
                "Fast:1 / Fast:2 job wall",
            );
        }
        None => {
            rep.absent("sim.charge_share", "fraction", "the Fast:1 twin failed");
            rep.absent("sim.thread_speedup", "ratio", "the Fast:1 twin failed");
        }
    }
    rep.put("sim.launch_overhead_us", "us", launch_us, "isolated empty launch, Fast:2");
    match (r0.tuning_counters, &untuned) {
        (Some(t), Some(off)) => {
            rep.put("tune.evaluations", "count", t.evaluations as f64, "TunerCounters");
            rep.put("tune.hits", "count", t.hits as f64, "TunerCounters");
            rep.put("tune.misses", "count", t.misses as f64, "TunerCounters");
            rep.put(
                "tune.hit_rate",
                "fraction",
                t.hits as f64 / (t.hits + t.misses).max(1) as f64,
                "TunerCounters",
            );
            rep.put(
                "tune.cost_ms_per_job",
                "ms",
                (job_wall - off.wall_s) * 1e3,
                "job wall, tuning auto - off",
            );
        }
        _ => {
            for (name, unit) in [
                ("tune.evaluations", "count"),
                ("tune.hits", "count"),
                ("tune.misses", "count"),
                ("tune.hit_rate", "fraction"),
                ("tune.cost_ms_per_job", "ms"),
            ] {
                rep.absent(name, unit, "tuning off");
            }
        }
    }
    match m.replay {
        Some(s) => {
            rep.put("exec.captured_launches", "count", s.nodes as f64, "ReplaySummary");
            rep.put(
                "exec.saved_us_per_epoch",
                "us",
                base.cycles_to_us(s.saved_cycles),
                "ReplaySummary",
            );
            rep.put("exec.arena_peak_mb", "MiB", s.peak_bytes as f64 / MIB, "ReplaySummary");
        }
        None => {
            for (name, unit) in [
                ("exec.captured_launches", "count"),
                ("exec.saved_us_per_epoch", "us"),
                ("exec.arena_peak_mb", "MiB"),
            ] {
                rep.absent(name, unit, "eager");
            }
        }
    }
    crate::serve::absent_serving(&mut rep);
    let untraced_ms: Vec<f64> =
        jobs[..first_traced].iter().map(|j| j.wall_s * 1e3 / epochs).collect();
    crate::trace_metrics(&mut rep, tracer, median(&op_ms) - median(&untraced_ms));
    rep
}
