//! Provenance bits: the exact overflow-provenance summary of every
//! rounding half kernel and tensor op, pinned against
//! `provenance_bits.txt`.
//!
//! Each record runs one kernel or op inside its own `overflow::begin` /
//! `take` window and pins the whole `overflow::Summary` — conversion
//! count, the three non-finite counters, and the first event's site,
//! conversion index, input bits and kind — next to a digest of the output
//! bits and, under `ExecMode::Sim`, the modeled cycles. How the rounding
//! is *executed* (scalar or vectorized, one recorder call per conversion
//! or one per clean row) must leave every line untouched.
//!
//! Cases:
//! * the edge-parallel HalfGNN SpMM under every scaling placement × both
//!   write strategies × unit and explicit edge weights;
//! * the vertex-parallel SpMM under every scaling placement × both weight
//!   kinds;
//! * every rounding half op of `Ops` (`to_half`, `to_f32`, `gemm_half`,
//!   `bias_add_half`, `row_scale_half`, `scale_add_half`) and
//!   `slice::f32_slice_to_half`;
//!
//! each at feature widths 2, 6, 8, 18 and 64 (so rows with a tail that
//! does not fill a vector register are covered) and each under `Sim` and
//! `Fast` with one worker thread. Fast workers do not record provenance,
//! so the Fast records pin exactly what the calling thread sees.
//!
//! Inputs: a 400-vertex graph whose row 2 is a hub over large positive
//! features (its sum overflows FP16 without scaling), a vertex with a NaN
//! feature lane read only by row 150, and an infinite edge weight on row
//! 250's first edge; the op inputs carry overflowing values, NaNs,
//! infinities and signalling-NaN halves at fixed lanes.

use halfgnn::graph::{Coo, Csr, VertexId};
use halfgnn::half::overflow::{self, Summary};
use halfgnn::half::slice::f32_slice_to_half;
use halfgnn::half::Half;
use halfgnn::kernels::common::row_scales_mean;
use halfgnn::kernels::halfgnn_spmm::{spmm, spmm_vertex_parallel, SpmmConfig};
use halfgnn::kernels::{EdgeWeights, ScalePlacement, WriteStrategy};
use halfgnn::sim::{DeviceConfig, ExecMode, KernelStats};
use halfgnn::tensor::Ops;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("provenance_bits.txt");

const WIDTHS: [usize; 5] = [2, 6, 8, 18, 64];

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

const N: usize = 400;
const HUB: u32 = 2;
const NAN_VERTEX: u32 = 7;
const NAN_READER: u32 = 150;
const INF_ROW: u32 = 250;

/// Deterministic values in `[-1, 1)` (a 64-bit LCG; no RNG crate).
fn unit_values(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// The lane each case poisons: mid-register for wide rows, in the tail
/// for narrow ones.
fn poison_lane(f: usize) -> usize {
    (f / 2 + 1) % f
}

fn graph() -> Csr {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for r in 0..N as u32 {
        if r == HUB {
            edges.extend((0..N as u32).filter(|&c| c != NAN_VERTEX).map(|c| (r, c)));
        } else if r % 37 != 0 {
            for c in [r, (r * 7 + 1) % N as u32, (r * 13 + 5) % N as u32] {
                if c != NAN_VERTEX {
                    edges.push((r, c));
                }
            }
        }
    }
    edges.push((NAN_READER, NAN_VERTEX));
    Csr::from_edges(N, N, &edges)
}

/// Features: unit-scale noise, large positive values on vertices 300..400
/// (the hub's sum over them overflows FP16), a NaN lane on `NAN_VERTEX`.
fn features(f: usize) -> Vec<Half> {
    let mut x = unit_values(N * f, f as u64);
    for v in 300..N {
        for l in 0..f {
            x[v * f + l] = 900.0 + l as f32;
        }
    }
    x[NAN_VERTEX as usize * f + poison_lane(f)] = f32::NAN;
    f32_slice_to_half(&x)
}

/// Edge weights in `[0.5, 1.5)`, infinite on `INF_ROW`'s first edge.
fn weights(coo: &Coo) -> Vec<Half> {
    let mut w: Vec<f32> = unit_values(coo.nnz(), 99).iter().map(|v| 1.0 + v / 2.0).collect();
    let first = coo.rows().iter().position(|&r| r == INF_ROW).expect("row has edges");
    w[first] = f32::INFINITY;
    f32_slice_to_half(&w)
}

// ---------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------

fn devices() -> [(&'static str, DeviceConfig); 2] {
    let sim = DeviceConfig::a100_like();
    let fast = sim.clone().with_exec(ExecMode::fast_with_threads(1));
    [("sim", sim), ("fast1", fast)]
}

fn digest(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b).wrapping_mul(0x100_0000_01b3))
}

fn half_digest(v: &[Half]) -> u64 {
    digest(v.iter().map(|h| h.to_bits() as u64))
}

/// Run `f` in a fresh tracking window under a fixture site label.
fn tracked<T>(f: impl FnOnce() -> T) -> (T, Summary) {
    overflow::begin();
    let out = {
        let _g = overflow::site("fixture");
        f()
    };
    (out, overflow::take())
}

fn record(out_digest: u64, s: &Summary, cycles: Option<f64>) -> String {
    let mut r = String::new();
    writeln!(r, "out {out_digest:016x}").unwrap();
    writeln!(
        r,
        "conversions {} overflows {} inf {} nan {}",
        s.conversions, s.overflows, s.inf_propagated, s.nan_propagated
    )
    .unwrap();
    match &s.first {
        Some(e) => writeln!(
            r,
            "first {:?} at '{}' #{} input {:08x}",
            e.kind,
            e.site,
            e.conversion_index,
            e.input.to_bits()
        )
        .unwrap(),
        None => writeln!(r, "first none").unwrap(),
    }
    if let Some(c) = cycles {
        writeln!(r, "cycles {:016x}", c.to_bits()).unwrap();
    }
    r
}

fn sim_cycles(dev: &DeviceConfig, stats: &[KernelStats]) -> Option<f64> {
    (!dev.exec.is_fast()).then(|| stats.iter().map(|s| s.cycles).sum())
}

const PLACEMENTS: [(&str, ScalePlacement); 4] = [
    ("discretized", ScalePlacement::Discretized),
    ("pre", ScalePlacement::PreReduction),
    ("post", ScalePlacement::PostReduction),
    ("none", ScalePlacement::None),
];

fn edge_parallel_records() -> Vec<(String, String)> {
    let csr = graph();
    let coo = csr.to_coo();
    let scale = row_scales_mean(&csr.degrees());
    let w = weights(&coo);
    let mut out = Vec::new();
    for f in WIDTHS {
        let x = features(f);
        for (dname, dev) in devices() {
            for (pname, scaling) in PLACEMENTS {
                for (wname, writes) in
                    [("staged", WriteStrategy::Staged), ("atomic", WriteStrategy::Atomic)]
                {
                    for (ename, ew) in
                        [("ones", EdgeWeights::Ones), ("values", EdgeWeights::Values(&w))]
                    {
                        let cfg = SpmmConfig { scaling, writes, ..SpmmConfig::default() };
                        let ((y, stats), s) =
                            tracked(|| spmm(&dev, &coo, ew, &x, f, Some(&scale), &cfg));
                        out.push((
                            format!("spmm/edge/{pname}/{wname}/{ename}/f{f}/{dname}"),
                            record(half_digest(&y), &s, sim_cycles(&dev, &[stats])),
                        ));
                    }
                }
            }
        }
    }
    out
}

fn vertex_parallel_records() -> Vec<(String, String)> {
    let csr = graph();
    let scale = row_scales_mean(&csr.degrees());
    let w = weights(&csr.to_coo());
    let mut out = Vec::new();
    for f in WIDTHS {
        let x = features(f);
        for (dname, dev) in devices() {
            for (pname, scaling) in PLACEMENTS {
                for (ename, ew) in
                    [("ones", EdgeWeights::Ones), ("values", EdgeWeights::Values(&w))]
                {
                    let ((y, stats), s) = tracked(|| {
                        spmm_vertex_parallel(&dev, &csr, ew, &x, f, Some(&scale), scaling)
                    });
                    out.push((
                        format!("spmm/vertex/{pname}/{ename}/f{f}/{dname}"),
                        record(half_digest(&y), &s, sim_cycles(&dev, &[stats])),
                    ));
                }
            }
        }
    }
    out
}

const ROWS: usize = 9;

/// `ROWS × f` floats with an overflowing value, a NaN, both infinities,
/// the largest value that still rounds to 65504 and a subnormal at fixed
/// lanes.
fn op_floats(f: usize) -> Vec<f32> {
    let mut v = unit_values(ROWS * f, 1000 + f as u64);
    let p = poison_lane(f);
    v[f + p] = 65_519.0;
    v[3 * f + p] = 70_000.0;
    v[5 * f] = f32::NAN;
    v[6 * f + f - 1] = f32::INFINITY;
    v[7 * f + p] = f32::NEG_INFINITY;
    v[8 * f + p] = 3.0e-6;
    v
}

/// `ROWS × f` halves covering every exponent-0x1F class: infinities,
/// quiet NaNs and signalling NaNs (whose payload must survive widening).
fn op_halves(f: usize) -> Vec<Half> {
    let mut v: Vec<Half> =
        unit_values(ROWS * f, 2000 + f as u64).iter().map(|&x| Half::from_f32(x * 8.0)).collect();
    let p = poison_lane(f);
    v[f + p] = Half::from_bits(0x7C01); // sNaN
    v[2 * f] = Half::from_bits(0xFE55); // negative qNaN with payload
    v[4 * f + f - 1] = Half::from_bits(0xFD00); // negative sNaN
    v[5 * f + p] = Half::INFINITY;
    v[6 * f + p] = Half::from_bits(0x0001); // smallest subnormal
    v
}

fn op_records() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for f in WIDTHS {
        let p = poison_lane(f);
        let xf = op_floats(f);
        let xh = op_halves(f);
        for (dname, dev) in devices() {
            let mut push = |op: &str, y: u64, s: Summary, ops: &Ops| {
                out.push((
                    format!("ops/{op}/f{f}/{dname}"),
                    record(y, &s, sim_cycles(&dev, &ops.log)),
                ));
            };

            let mut ops = Ops::new(&dev);
            let (y, s) = tracked(|| ops.to_half(&xf));
            push("to_half", half_digest(&y), s, &ops);

            let mut ops = Ops::new(&dev);
            let (y, s) = tracked(|| ops.to_f32(&xh));
            push("to_f32", digest(y.iter().map(|v| v.to_bits() as u64)), s, &ops);

            // `ROWS × f` times `f × f`, plain and transposed: row 3 meets a
            // column of 300s (overflow), row 5 carries a NaN.
            let mut a: Vec<f32> = unit_values(ROWS * f, 3000 + f as u64);
            a[3 * f + p] = 300.0;
            a[5 * f] = f32::NAN;
            let mut b: Vec<f32> = unit_values(f * f, 4000 + f as u64);
            for j in 0..f {
                b[p * f + j] = 300.0;
            }
            let (ah, bh) = (f32_slice_to_half(&a), f32_slice_to_half(&b));
            for (tname, tb) in [("nn", false), ("nt", true)] {
                let mut ops = Ops::new(&dev);
                let (y, s) = tracked(|| ops.gemm_half(&ah, false, &bh, tb, ROWS, f, f));
                push(&format!("gemm_half_{tname}"), half_digest(&y), s, &ops);
            }

            // Bias: 1000 on the poisoned lane (65000 + 1000 overflows on
            // row 3), infinite on the last lane.
            let mut x = unit_values(ROWS * f, 5000 + f as u64);
            x[3 * f + p] = 65_000.0;
            x[6 * f] = f32::NAN;
            let mut bias = unit_values(f, 6000 + f as u64);
            bias[p] = 1000.0;
            bias[f - 1] = f32::INFINITY;
            let (x, bias) = (f32_slice_to_half(&x), f32_slice_to_half(&bias));
            let mut ops = Ops::new(&dev);
            let (y, s) = tracked(|| ops.bias_add_half(&x, &bias));
            push("bias_add_half", half_digest(&y), s, &ops);

            // Row scale: row 2 scaled by 300 over a 300 lane (overflow),
            // row 4 holds a NaN, row 7's scale is infinite.
            let mut x = unit_values(ROWS * f, 7000 + f as u64);
            x[2 * f + p] = 300.0;
            x[4 * f + p] = f32::NAN;
            let mut sc: Vec<f32> = unit_values(ROWS, 8000 + f as u64);
            sc[2] = 300.0;
            sc[7] = f32::INFINITY;
            let (x, sc) = (f32_slice_to_half(&x), f32_slice_to_half(&sc));
            let mut ops = Ops::new(&dev);
            let (y, s) = tracked(|| ops.row_scale_half(&x, &sc, f));
            push("row_scale_half", half_digest(&y), s, &ops);

            // a·x + b·y: 2 · 40000 overflows in the product on row 1; y
            // carries an infinity on row 4 and a NaN on row 8.
            let mut x = unit_values(ROWS * f, 9000 + f as u64);
            x[f + p] = 40_000.0;
            let mut yv = unit_values(ROWS * f, 9500 + f as u64);
            yv[4 * f + p] = f32::NEG_INFINITY;
            yv[8 * f] = f32::NAN;
            let (x, yv) = (f32_slice_to_half(&x), f32_slice_to_half(&yv));
            let (ca, cb) = (Half::from_f32(2.0), Half::from_f32(0.5));
            let mut ops = Ops::new(&dev);
            let (y, s) = tracked(|| ops.scale_add_half(ca, &x, cb, &yv));
            push("scale_add_half", half_digest(&y), s, &ops);

            let ops = Ops::new(&dev);
            let (y, s) = tracked(|| f32_slice_to_half(&xf));
            push("f32_slice_to_half", half_digest(&y), s, &ops);
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
    assert!(diffs.is_empty(), "{} provenance lines moved:\n{}", diffs.len(), diffs.join("\n"));
}

#[test]
fn edge_parallel_spmm_provenance_matches_the_fixture() {
    check(edge_parallel_records());
}

#[test]
fn vertex_parallel_spmm_provenance_matches_the_fixture() {
    check(vertex_parallel_records());
}

#[test]
fn half_op_provenance_matches_the_fixture() {
    check(op_records());
}

#[test]
fn the_fixture_holds_exactly_the_generated_cases() {
    let mut names: Vec<String> = [edge_parallel_records(), vertex_parallel_records(), op_records()]
        .into_iter()
        .flatten()
        .map(|(name, _)| name)
        .collect();
    names.sort();
    let fixture: Vec<String> = fixture().into_keys().collect();
    assert_eq!(fixture, names);
}
