//! Spans recorded from the benchmark's own code around calls into the
//! program's layers. Kept in memory and written out when the run ends.
//!
//! A span's name is `<layer>.<call>`; its layer is the text before the
//! first dot. A layer's self time is the time its spans cover minus the
//! time covered by their child spans.

use crate::json::Value;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The timed operation the span belongs to (0 outside the timed loop).
    pub op: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Identifier stamped on new spans; the workload sets it per op.
    pub op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` inside a span named `name` (a no-op wrapper when off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Durations in milliseconds of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Self time per layer in milliseconds, sorted by layer name.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let self_ms = s.ns().saturating_sub(c) as f64 / 1e6;
            match out.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some((_, ms)) => *ms += self_ms,
                None => out.push((s.layer(), self_ms)),
            }
        }
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Every span as JSON: name, start and end in ns since the run began,
    /// parent span index (or null) and op id.
    pub fn to_json(&self) -> Value {
        let num = |x: u64| Value::Num(x as f64);
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), num(s.start_ns)),
                        ("end_ns".into(), num(s.end_ns)),
                        ("parent".into(), s.parent.map_or(Value::Null, |p| num(p as u64))),
                        ("op".into(), num(s.op)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.op = 7;
        t.span("bench.op", |t| {
            t.span("nn.train_on", |_| std::thread::sleep(std::time::Duration::from_millis(5)))
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
        let by_layer = t.self_ms_by_layer();
        let ms = |l: &str| by_layer.iter().find(|(n, _)| *n == l).unwrap().1;
        assert!(ms("nn") >= 5.0);
        assert!(ms("bench") < ms("nn"));
        let total = t.spans[0].ns() as f64 / 1e6;
        assert!((ms("bench") + ms("nn") - total).abs() < 1e-6);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("bench.op", |_| 3), 3);
        assert!(off.spans.is_empty());
    }
}
