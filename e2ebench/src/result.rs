//! One run's outcome: the metric table printed for people, the JSON
//! document `compare` reads back, and the one-line summary that ends
//! standard output.

use tricluster_core::obs::json::Json;

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Everything one invocation measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Operations attempted in the measured phase (mine reps or jobs).
    pub attempted: u64,
    /// Attempted operations that failed: non-zero exits, non-2xx or 429
    /// responses, timeouts, and outputs differing from their reference.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Metrics printed in the table and kept in the run document, but left
    /// out of the summary line, so nothing gates on them.
    pub extra: Vec<Metric>,
    /// Sample counts and other context printed under the table.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn print_table(&self) {
        println!(
            "# e2ebench {} seed {} ({})",
            self.workload,
            self.seed,
            if self.trace {
                "traced pass: per-layer metrics"
            } else {
                "timed pass: end-to-end metrics"
            }
        );
        println!("{:<28} {:>16}  unit", "metric", "value");
        for m in &self.metrics {
            println!("{:<28} {:>16.6}  {}", m.name, m.value, m.unit);
        }
        for m in &self.extra {
            println!("{:<28} {:>16.6}  {} (not gated)", m.name, m.value, m.unit);
        }
        for note in &self.notes {
            println!("# {note}");
        }
        println!(
            "# attempted {}, failed {} ({})",
            self.attempted,
            self.failed,
            if self.correct() {
                "all outputs checked"
            } else {
                "OUTPUT CHECK FAILED"
            }
        );
    }

    fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Json {
        let mut obj = Json::obj();
        for m in metrics {
            obj.set(
                m.name,
                Json::obj()
                    .with("value", Json::F64(m.value))
                    .with("unit", Json::Str(m.unit.into())),
            );
        }
        obj
    }

    /// The full document `e2ebench compare` reads.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("schema", Json::Str("tricluster.e2ebench/v1".into()))
            .with("workload", Json::Str(self.workload.into()))
            .with("seed", Json::U64(self.seed))
            .with("trace", Json::Bool(self.trace))
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::U64(self.attempted))
            .with("failed", Json::U64(self.failed))
            .with(
                "metrics",
                Self::metrics_json(self.metrics.iter().chain(&self.extra)),
            )
            .with(
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            )
    }

    /// The single-line summary that ends standard output.
    pub fn summary_line(&self) -> String {
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::U64(self.attempted))
            .with("failed", Json::U64(self.failed))
            .with("metrics", Self::metrics_json(self.metrics.iter()))
            .render()
    }
}
