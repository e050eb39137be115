//! What one run reports: named metrics with units and sample counts, the
//! attempted/failed tally, and the result line. Also the statistics rules
//! every metric follows and the check against `BENCHMARK.json`.

use crate::json::{self, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The benchmark's declaration, compiled in so the binary and the file can
/// never disagree silently.
pub const DECLARATION: &str = include_str!("../../BENCHMARK.json");

pub const MIB: f64 = 1024.0 * 1024.0;

/// Metric names: a letter or digit, then letters, digits, `_`, `.`, `-`;
/// at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|&c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1], reported only when at least ten
/// samples lie beyond it; a tail read from fewer is noise.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len().max(1));
    (s.len() >= rank + 10).then(|| s[rank - 1])
}

/// Attempted and failed operations. An operation fails once, however many
/// of its checks fail and whether or not it also panics.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

/// The checks made on one operation's outputs.
#[derive(Default)]
pub struct Checks {
    failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed.push(what());
        }
    }
}

impl Tally {
    /// Run one operation, counting it as attempted, and as failed when it
    /// panics or any of its checks fails. Returns its result unless it
    /// panicked.
    pub fn op<T>(&mut self, name: &str, f: impl FnOnce(&mut Checks) -> T) -> Option<T> {
        self.attempted += 1;
        let mut checks = Checks::default();
        let out = catch_unwind(AssertUnwindSafe(|| f(&mut checks)));
        if out.is_err() {
            checks.failed.push("panicked".into());
        }
        if !checks.failed.is_empty() {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", checks.failed.join("; ")));
        }
        out.ok()
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How the value was obtained: its sample count, or why it is zero.
    pub basis: String,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Hash over every modeled statistic and the loss bits.
    pub digest: Option<u64>,
    /// Free-form lines printed before the result (spans file, notes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        basis: impl Into<String>,
    ) {
        self.metrics.push(Metric { name, unit, value, basis: basis.into() });
    }

    /// A metric the workload does not exercise: reported as 0 with the reason.
    pub fn absent(&mut self, name: &'static str, unit: &'static str, why: &str) {
        self.put(name, unit, 0.0, format!("absent: {why}"));
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric.
    pub fn result_line(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), Value::Obj(fields))
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.tally.failed == 0)),
            ("attempted".into(), Value::Num(self.tally.attempted as f64)),
            ("failed".into(), Value::Num(self.tally.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
    }

    /// Every metric must be declared in `BENCHMARK.json` under `section`
    /// with the same unit, every declared metric must be reported once,
    /// and every value must be finite.
    pub fn conform(&self, section: &str) -> Result<(), String> {
        let declared = declared_metrics(section)?;
        let mut seen: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if !valid_name(m.name) {
                return Err(format!("bad metric name {:?}", m.name));
            }
            if seen.contains(&m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            seen.push(m.name);
            match declared.iter().find(|(n, _)| n == m.name) {
                None => return Err(format!("metric {} is not declared in {section}", m.name)),
                Some((_, u)) if u != m.unit => {
                    return Err(format!(
                        "metric {} has unit {} but {section} says {u}",
                        m.name, m.unit
                    ))
                }
                Some(_) => {}
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
        }
        match declared.iter().find(|(n, _)| !seen.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("declared metric {n} was not reported")),
            None => Ok(()),
        }
    }
}

/// `(name, unit)` of each metric declared in one section of `BENCHMARK.json`.
pub fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let decl = json::parse(DECLARATION)?;
    let items = decl
        .get(section)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    items
        .iter()
        .map(|m| {
            match (m.get("name").and_then(Value::as_str), m.get("unit").and_then(Value::as_str)) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("malformed entry in {section}: {m}")),
            }
        })
        .collect()
}

/// Names of the workloads declared in `BENCHMARK.json`.
pub fn declared_workloads() -> Result<Vec<String>, String> {
    let decl = json::parse(DECLARATION)?;
    let items =
        decl.get("workloads").and_then(Value::as_arr).ok_or("BENCHMARK.json has no workloads")?;
    Ok(items
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .map(String::from)
        .collect())
}

/// 64-bit digest of a word stream, in order (splitmix64 chaining).
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0x6a09_e667_f3bc_c908)
    }

    pub fn word(&mut self, w: u64) -> &mut Digest {
        let mut z = (self.0 ^ w).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Digest {
        self.word(x.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples, 0.99), Some(990.0));
        assert_eq!(tail(&samples[..999], 0.99), None);
        assert_eq!(tail(&samples[..100], 0.9), Some(90.0));
        assert_eq!(tail(&samples[..99], 0.9), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in ["setup_s", "nn.dist.halo_mb_per_epoch", "0x", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms²", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn a_failing_op_counts_once() {
        let mut t = Tally::default();
        t.op("ok", |c| c.check(true, || "never".into()));
        t.op("two bad checks", |c| {
            c.check(false, || "first".into());
            c.check(false, || "second".into());
        });
        t.op("bad check then panic", |c| {
            c.check(false, || "check".into());
            panic!("injected failure");
        });
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.failed_share(), 2.0 / 3.0);
        assert_eq!(t.failures.len(), 2);
    }

    #[test]
    fn declaration_round_trips_and_names_are_valid() {
        let decl = json::parse(DECLARATION).unwrap();
        assert_eq!(json::parse(&decl.to_string()).unwrap(), decl);
        let keys: Vec<&str> = match &decl {
            Value::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let mut names = declared_workloads().unwrap();
        for section in ["end_to_end", "per_layer"] {
            names.extend(declared_metrics(section).unwrap().into_iter().map(|(n, _)| n));
        }
        assert!(names.iter().all(|n| valid_name(n)));
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let e2e = declared_metrics("end_to_end").unwrap();
        assert!(e2e.contains(&("setup_s".into(), "s".into())));
    }

    #[test]
    fn conform_rejects_missing_and_undeclared_metrics() {
        let mut r = Report::default();
        for (n, u) in declared_metrics("end_to_end").unwrap() {
            let name: &'static str = Box::leak(n.into_boxed_str());
            let unit: &'static str = Box::leak(u.into_boxed_str());
            r.put(name, unit, 1.0, "1 sample");
        }
        assert_eq!(r.conform("end_to_end"), Ok(()));
        r.put("not_declared", "s", 1.0, "");
        assert!(r.conform("end_to_end").is_err());
        r.metrics.pop();
        r.metrics.pop();
        assert!(r.conform("end_to_end").is_err());
    }
}
