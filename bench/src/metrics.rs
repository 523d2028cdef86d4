//! Metric names, units and the printed/written result of one run.
//!
//! Every workload reports every metric: the end-to-end set from untraced
//! runs, the per-layer set from traced runs. Both lists must match
//! `BENCHMARK.json` (checked by the smoke tests).

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Serialize, Value};

use crate::spans::LayerTotals;

/// End-to-end metrics: `(name, unit)`. Medians over the run's timed
/// operations; what an operation is depends on the workload (README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_minsts_per_s", "Minst/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("workloads.path_ms", "ms"),
    ("workloads.expand_minsts_per_s", "Minst/s"),
    ("workloads.fanout_minsts_per_s", "Minst/s"),
    ("workloads.cone_minsts_per_s", "Minst/s"),
    ("workloads.stream_minsts_per_s", "Minst/s"),
    ("profiler.profile_ms", "ms"),
    ("compiler.passes_ms", "ms"),
    ("compiler.capture_ms", "ms"),
    ("compiler.validate_ms", "ms"),
    ("pipeline.decode_minsts_per_s", "Minst/s"),
    ("pipeline.prefix_shared_frac", "frac"),
    ("pipeline.cycle_loop_minsts_per_s", "Minst/s"),
    ("pipeline.stream_loop_minsts_per_s", "Minst/s"),
    ("pipeline.reference_minsts_per_s", "Minst/s"),
    ("model.cycles", "count"),
    ("model.committed", "count"),
    ("model.ipc", "insn/cycle"),
    ("mem.l1i_misses", "count"),
    ("mem.l1d_misses", "count"),
    ("bpu.mispredicts", "count"),
    ("model.thumb_fetched", "count"),
    ("store.hit_rate", "frac"),
    ("store.builds", "count"),
    ("disk.load_ms_p50", "ms"),
    ("disk.load_ms_p90", "ms"),
    ("disk.save_ms_p50", "ms"),
    ("disk.save_ms_p90", "ms"),
    ("disk.hits", "count"),
    ("disk.bytes", "B"),
    ("journal.append_ms_p50", "ms"),
    ("journal.append_ms_p90", "ms"),
    ("journal.replay_ms", "ms"),
    ("campaign.unattributed_ms_per_cell", "ms"),
    ("service.admit_ms", "ms"),
    ("service.cell_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.p90_ms", "ms"),
    ("service.rejected", "count"),
    ("service.degraded", "count"),
    ("service.unanswered", "count"),
    ("service.ok_frac", "frac"),
    ("wire.reply_parse_us", "us"),
    ("client.late_p90_ms", "ms"),
    ("obs.telemetry_overhead_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Named values collected while a run measures, before they are matched
/// against the metric tables.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Sets one value (the last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Copies every value of `other` in.
    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    /// One value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every value, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.0.iter()
    }
}

/// The outcome of one run, printed and written as JSON.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Every correctness gate held and no operation failed.
    pub correct: bool,
    /// Operations attempted (timed cells or requests, plus gate checks).
    pub attempted: u64,
    /// Operations that failed, gate violations included.
    pub failed: u64,
    /// The reported metrics: name → (value, unit), in table order.
    pub metrics: Vec<(String, f64, String)>,
    /// Numbers outside this run's metric table.
    pub details: BTreeMap<String, f64>,
    /// Per-span-name totals of the traced run.
    pub layers: BTreeMap<String, LayerTotals>,
    /// What went wrong, one line each.
    pub violations: Vec<String>,
}

impl Report {
    /// Picks the metric table for the run kind out of `values`. A metric the
    /// run failed to produce, or a non-finite one, is a violation: a metric
    /// must never silently disappear.
    pub fn select(&mut self, values: &Values) {
        let table = if self.trace { PER_LAYER } else { END_TO_END };
        for &(name, unit) in table {
            match values.get(name) {
                Some(v) if v.is_finite() => {
                    self.metrics.push((name.to_string(), v, unit.to_string()))
                }
                other => self
                    .violations
                    .push(format!("metric {name} missing or not finite: {other:?}")),
            }
        }
        for (name, value) in values.iter() {
            if !table.iter().any(|(n, _)| n == name) {
                self.details.insert(name.clone(), *value);
            }
        }
    }

    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Int(self.attempted as i64)),
            ("failed".to_string(), Value::Int(self.failed as i64)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
        .to_string()
    }

    /// Human-readable lines: every metric with its unit, the operation
    /// counts, the workload details and any violation.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} seed {} ({})\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" }
        );
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("  {name:36} {value:>14.4} {unit}\n"));
        }
        for (name, value) in &self.details {
            out.push_str(&format!("  {name:36} {value:>14.4}\n"));
        }
        out.push_str(&format!(
            "  attempted {} failed {}\n",
            self.attempted, self.failed
        ));
        for v in &self.violations {
            out.push_str(&format!("  VIOLATION: {v}\n"));
        }
        out
    }

    /// Writes the full report as JSON.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
    }
}
