//! The metric catalogue, the machine/build descriptor and the one-line
//! JSON result every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use amoeba_nn::simd::SimdLevel;

/// A metric catalogue: `(name, unit)` pairs in print order.
pub type Catalogue = Vec<(String, &'static str)>;

/// End-to-end metrics, printed by every workload with tracing off. The
/// per-workload meaning of each is documented in the benchmark README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_s", "s"),
    ("frames_per_s", "1/s"),
    ("frame_latency_p50_us", "us"),
    ("frame_latency_p95_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The inference kernels microbenchmarked by the traced run.
pub const KERNELS: [&str; 3] = ["cpu", "simd", "packed"];

/// The workloads whose largest matmul shape the kernel microbenchmarks use.
pub const SERVE_WORKLOADS: [&str; 2] = ["serve_paper", "serve_tenants"];

const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("backend.push_batch.calls", "count"),
    ("backend.push_batch.rows_per_call", "rows"),
    ("backend.push_batch.ns_per_row", "ns"),
    ("backend.head_batch.ns_per_row", "ns"),
    ("backend.ns_per_frame", "ns"),
    ("backend.mmac_per_frame", "MMAC"),
    ("backend.gmac_per_s", "GMAC/s"),
    ("censor.observe.calls_per_frame", "calls/frame"),
    ("censor.ns_per_frame", "ns"),
    ("censor.dt.ns_per_call", "ns"),
    ("censor.cumul.ns_per_call", "ns"),
    ("censor.lstm.ns_per_call", "ns"),
    ("censor.rf.ns_per_call", "ns"),
    ("framing.ns_per_frame", "ns"),
    ("sched.batches", "count"),
    ("sched.stolen_batches", "count"),
    ("sched.max_queue_depth", "count"),
    ("sched.queue_wait_p50_us", "us"),
    ("unattributed.ns_per_frame", "ns"),
    ("train.censor.ns_per_query", "ns"),
    ("train.pretrain.ms_per_epoch", "ms"),
    ("train.rollout.ns_per_step", "ns"),
    ("train.batch_gae.ns_per_step", "ns"),
    ("train.update.ms_per_iter", "ms"),
    ("train.eval.ms", "ms"),
    ("train.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Name of the kernel microbenchmark metric for `kernel` at `workload`'s
/// largest matmul shape.
pub fn kernel_metric(kernel: &str, workload: &str) -> String {
    format!("nn.matmul.{kernel}.{workload}.gmac_per_s")
}

/// Per-layer metrics, printed by every workload with tracing on. A layer
/// a workload never calls reports 0.
pub fn per_layer() -> Catalogue {
    let mut out = owned(PER_LAYER_FIXED);
    for w in SERVE_WORKLOADS {
        for k in KERNELS {
            out.push((kernel_metric(k, w), "GMAC/s"));
        }
    }
    out
}

/// The end-to-end catalogue.
pub fn end_to_end() -> Catalogue {
    owned(END_TO_END)
}

fn owned(metrics: &[(&str, &'static str)]) -> Catalogue {
    metrics.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

/// The machine and build a result was measured on.
#[derive(Debug, Clone)]
pub struct Descriptor {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Widest SIMD level the matmul kernels dispatch to.
    pub simd: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Git revision of the source tree (`unknown` outside a checkout).
    pub git_rev: &'static str,
    /// The inference backend the serving engine actually instantiated.
    pub backend: String,
}

impl Descriptor {
    /// Describes this machine and build; `backend` is what
    /// `ServeEngine::backend_name` reported.
    pub fn detect(backend: &str) -> Self {
        Self {
            nproc: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            simd: SimdLevel::detect().to_string(),
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: env!("PERFBENCH_GIT_REV"),
            backend: backend.to_string(),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"simd\": {}, \"rustc\": {}, \"git_rev\": {}, \"backend\": {}}}",
            self.nproc,
            json_str(&self.simd),
            json_str(self.rustc),
            json_str(self.git_rev),
            json_str(&self.backend),
        )
    }
}

/// A run's outcome: correctness, session counts and metric values.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (sessions, or training flows and sessions).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Why the run is not correct, one line per failed check.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.problems.push(why);
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The result line: exactly the metrics in `catalogue`, in its order.
    /// A missing or non-finite value is a benchmark bug and marks the run
    /// incorrect.
    pub fn to_json(&mut self, catalogue: &Catalogue) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    self.fail(format!("metric {name} is {other:?}"));
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn all_names() -> Vec<String> {
        end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|(n, _)| n)
            .collect()
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let names = all_names();
        for n in &names {
            assert!(valid_name(n), "illegal metric name {n:?}");
        }
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric names");
        for (_, unit) in end_to_end().into_iter().chain(per_layer()) {
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn illegal_names_are_rejected() {
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(valid_name("nn.matmul.cpu.serve_paper.gmac_per_s"));
    }

    /// The catalogue here and the one in `BENCHMARK.json` must agree.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return; // the benchmark directory was copied out on its own
        };
        for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            all_names().len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn result_line_has_every_metric_and_flags_gaps() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 1.25);
        let line = o.to_json(&end_to_end());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"work_s\": {\"value\": 0.0"));
        assert_eq!(o.problems.len(), END_TO_END.len() - 1);
    }
}
