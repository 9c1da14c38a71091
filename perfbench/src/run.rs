//! One benchmark run: its metrics, environment, accounting and tracer.

use crate::report::{Metric, Outcome, Tally};
use crate::trace::Tracer;
use mmdr_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with tracing off.
/// Names and units match `BENCHMARK.json`.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("knn_qps", "1/s"),
    ("knn_p50_ms", "ms"),
    ("batch_qps_2t", "1/s"),
    ("ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("store_bytes_per_row", "B/row"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.fit_s", "s"),
    ("idistance.build_s", "s"),
    ("idistance.knn_ms", "ms"),
    ("idistance.dists_per_q", "count"),
    ("idistance.refined_per_q", "count"),
    ("idistance.useful_frac", "frac"),
    ("idistance.heap_get_ns", "ns"),
    ("btree.seek_us", "us"),
    ("btree.step_ns", "ns"),
    ("btree.pages_per_step", "count"),
    ("btree.height", "count"),
    ("storage.pages_per_q", "count"),
    ("storage.fetch_hit_ns", "ns"),
    ("storage.hit_frac", "frac"),
    ("storage.evictions_per_q", "count"),
    ("storage.physical_reads_per_q", "count"),
    ("storage.readahead_hit_frac", "frac"),
    ("storage.fetch_miss_us", "us"),
    ("index.batch_speedup_2t", "x"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.pushdown_frac", "frac"),
    ("query.postfilter_frac", "frac"),
    ("query.prefilter_frac", "frac"),
    ("query.pages_per_fknn", "count"),
    ("persist.save_s", "s"),
    ("persist.open_s", "s"),
    ("persist.insert_ms", "ms"),
    ("persist.merges", "count"),
    ("persist.flush_s", "s"),
    ("persist.delta_rows_mean", "count"),
    ("persist.wal_bytes_per_insert", "B"),
    ("persist.write_amp", "x"),
    ("serve.ping_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("serve.coalesced_frac", "frac"),
    ("serve.overloaded", "count"),
    ("serve.protocol_errors", "count"),
    ("router.shards_per_q", "count"),
    ("router.hop_us", "us"),
    ("router.overhead_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    // Tail and served-only latencies, and the failure share (0 at a
    // correct commit): they do not repeat within a tenth between runs on
    // a shared host, or are not positive, so they are not end-to-end
    // gates.
    ("knn_p99_ms", "ms"),
    ("fknn_p50_ms", "ms"),
    ("fknn_p99_ms", "ms"),
    ("range_p50_ms", "ms"),
    ("insert_p50_ms", "ms"),
    ("insert_p99_ms", "ms"),
    ("failed_frac", "frac"),
];

/// Mutable state of one workload run.
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Measuring budget for the whole run.
    pub seconds: f64,
    /// Spans (records nothing unless the run is traced).
    pub tracer: Tracer,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Directory for this run's files, removed when the run ends.
    pub dir: PathBuf,
    env: Vec<(String, Value)>,
    values: BTreeMap<&'static str, f64>,
    mismatches: Vec<String>,
}

impl Run {
    /// A run writing its files under `dir` (created here).
    pub fn new(seed: u64, seconds: f64, trace: bool, dir: PathBuf) -> std::io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            tally: Tally::default(),
            dir,
            env: Vec::new(),
            values: BTreeMap::new(),
            mismatches: Vec::new(),
        })
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// A share of the measuring budget.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Records metric `name`, which must be listed in [`E2E`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            E2E.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Adds one entry to the run's environment block.
    pub fn env(&mut self, key: &str, value: impl Into<Value>) {
        self.env.push((key.to_string(), value.into()));
    }

    /// Counts one operation.
    pub fn outcome(&mut self, outcome: Outcome) {
        self.tally.record(outcome);
    }

    /// Counts one checked operation: `Ok` when `ok`, else a mismatch
    /// described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.outcome(Outcome::Ok);
        } else {
            self.outcome(Outcome::Mismatch);
            if self.mismatches.len() < 20 {
                self.mismatches.push(what());
            }
        }
    }

    /// Descriptions of the first mismatches.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// The environment block.
    pub fn env_value(&self) -> Value {
        Value::Object(self.env.clone())
    }

    /// The metrics to print: every end-to-end metric untraced, every
    /// per-layer metric (0 where unset) traced. An end-to-end metric left
    /// unset is a benchmark bug.
    pub fn metrics(&self) -> Vec<Metric> {
        let traced = self.traced();
        let list = if traced { PER_LAYER } else { E2E };
        list.iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                Metric { name, value, unit }
            })
            .collect()
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
