//! Collected metrics and the result line.

use crate::stats::{median, quartiles, tail, Tail};

/// Samples beyond the reported tail statistic.
pub const TAIL_BEYOND: usize = 10;

/// Tracing overheads of a traced run, in percent: benchmark spans on
/// against off, and the engine's own trace on against off.
pub struct Overheads {
    pub bench_pct: f64,
    pub engine_pct: f64,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Human-readable evidence: quartiles, sample counts, tail rank.
    pub detail: String,
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub samples: Vec<(&'static str, usize)>,
    /// Informational lines printed ahead of the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation; a failure is kept with its reason.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    pub fn count(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            detail: String::new(),
        });
    }

    /// The median of `xs` (already in `unit`), with its quartiles.
    pub fn median(&mut self, name: impl Into<String>, unit: &'static str, xs: &[f64]) {
        let q = quartiles(xs);
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: median(xs),
            detail: format!("q1={:.6} q3={:.6} n={}", q[0], q[2], xs.len()),
        });
    }

    /// The highest order statistic with [`TAIL_BEYOND`] samples above it.
    pub fn tail(&mut self, name: impl Into<String>, unit: &'static str, xs: &[f64]) {
        let Tail {
            value,
            percentile,
            beyond,
            samples,
        } = tail(xs, TAIL_BEYOND);
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            detail: format!("p{percentile:.1} with {beyond} of {samples} samples beyond"),
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Fail the run if a metric is not a finite number.
    pub fn validate(&self) -> Result<(), String> {
        match self.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("metric {} is not finite: {}", m.name, m.value)),
            None => Ok(()),
        }
    }

    /// Human-readable report lines, then the one-line JSON result last.
    pub fn print(&self, record: &str) {
        for n in &self.notes {
            println!("{n}");
        }
        for m in &self.metrics {
            println!("metric {} = {} {}  {}", m.name, m.value, m.unit, m.detail);
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "metric fail_frac = {frac} ratio  ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for e in &self.errors {
            println!("failure: {e}");
        }
        println!("record {record}");
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }
}
