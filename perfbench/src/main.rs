//! perfbench: the repository's benchmark. Runs one workload for a fixed
//! time, checks its outputs, and prints every metric by name and unit; the
//! last line of standard output is the JSON result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` is a separate run that records spans around every call into
//! the program and reports the per-layer metrics. See `README.md`.

mod json;
mod layers;
mod report;
mod serve;
mod trace;
mod train;

use report::Report;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run: at least `SETUP_MIN`, more while they have taken
/// under `SETUP_BUDGET_S`, at most `SETUP_MAX`. `setup_s` is their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;

/// Layers whose self time the traced run reports.
const SPAN_LAYERS: [(&str, &str); 8] = [
    ("bench", "bench.self_ms"),
    ("graph", "graph.self_ms"),
    ("nn", "nn.self_ms"),
    ("kernels", "kernels.self_ms"),
    ("half", "half.self_ms"),
    ("tensor", "tensor.self_ms"),
    ("sim", "sim.self_ms"),
    ("serve", "serve.self_ms"),
];

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = report::declared_workloads()?;
    let workload = workload.ok_or("--workload is required")?;
    if !known.contains(&workload) {
        return Err(format!("unknown workload {workload} (want one of {})", known.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run `setup` repeatedly inside `bench.setup` spans; return the last
/// result and every duration in seconds.
pub fn repeat_setup<T>(
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> T,
) -> (T, Vec<f64>) {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    while secs.len() < SETUP_MIN
        || (secs.len() < SETUP_MAX && secs.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(tracer.span("bench.setup", &mut setup));
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// Closed loop with one client: call `op` with 0, 1, … until `seconds`
/// have passed and at least `min_ops` ops have run.
pub fn timed_loop(seconds: f64, min_ops: u64, mut op: impl FnMut(u64)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
}

/// High-water mark of this process's resident memory, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Tracing overhead, span count and each layer's self time.
pub fn trace_metrics(rep: &mut Report, tracer: &Tracer, overhead_ms: f64) {
    rep.put(
        "trace.overhead_ms_per_op",
        "ms",
        overhead_ms,
        "median traced op - median untraced op, same run",
    );
    rep.put("trace.spans", "count", tracer.spans.len() as f64, "spans recorded");
    let by_layer = tracer.self_ms_by_layer();
    for (layer, metric) in SPAN_LAYERS {
        match by_layer.iter().find(|(l, _)| *l == layer) {
            Some((_, ms)) => rep.put(metric, "ms", *ms, "self time over the traced run"),
            None => rep.absent(metric, "ms", "no spans in this layer"),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let rep = match train::WORKLOADS.iter().find(|w| w.name == args.workload) {
        Some(w) => train::run(w, &args, &mut tracer),
        None => serve::run(&args, &mut tracer),
    };
    let section = if args.trace { "per_layer" } else { "end_to_end" };
    if let Err(e) = rep.conform(section) {
        for f in &rep.tally.failures {
            eprintln!("FAILED {f}");
        }
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(3);
    }

    println!("workload {} seed {} ({})", args.workload, args.seed, section);
    for m in &rep.metrics {
        println!("  {:<36} {:>14.6} {:<9} {}", m.name, m.value, m.unit, m.basis);
    }
    if let Some(d) = rep.digest {
        println!("modeled_digest {d:016x}");
    }
    for note in &rep.notes {
        println!("note: {note}");
    }
    if args.trace {
        let path = format!(".perfbench/trace-{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".perfbench")
            .and_then(|_| std::fs::write(&path, tracer.to_json().to_string()));
        match written {
            Ok(()) => println!("spans: {} written to {path}", tracer.spans.len()),
            Err(e) => println!("spans: could not write {path}: {e}"),
        }
    }
    for f in &rep.tally.failures {
        println!("FAILED {f}");
    }
    println!("{}", rep.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a =
            parse_args(&argv("--workload gcn-full-half --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("gcn-full-half", 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload gcn-full-half --seed -1 --seconds 1 --trace 0",
            "--workload gcn-full-half --seed 1 --seconds 0 --trace 0",
            "--workload gcn-full-half --seed 1 --seconds 1 --trace 2",
            "--workload gcn-full-half --seed 1 --seconds 1",
            "--workload gcn-full-half --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_declared_workload_has_an_implementation() {
        for w in report::declared_workloads().unwrap() {
            assert!(w == "serve-gcn-mixed" || train::WORKLOADS.iter().any(|t| t.name == w), "{w}");
        }
        assert_eq!(report::declared_workloads().unwrap().len(), train::WORKLOADS.len() + 1);
    }

    #[test]
    fn timed_loop_honours_min_ops_and_duration() {
        let mut n = 0;
        timed_loop(0.0, 3, |_| n += 1);
        assert_eq!(n, 3);
        let t = Instant::now();
        timed_loop(0.02, 1, |_| std::thread::sleep(std::time::Duration::from_millis(1)));
        assert!(t.elapsed().as_secs_f64() >= 0.02);
    }
}
