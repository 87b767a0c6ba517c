//! What every workload shares: the run configuration, the outcome record,
//! the metric catalogue and the scratch-directory guard.

use crate::trace::{LayerTable, Span};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tspdb_core::ViewBuilderConfig;

/// Engine threads, server workers and load-generator threads: the host has
/// two cores, so everything is pinned to two and the figure is recorded
/// with the results.
pub const THREADS: usize = 2;

/// A cheap set-up is repeated at least `SETUP_MIN` times and until
/// `SETUP_BUDGET` has been spent on it, but at most `SETUP_MAX` times;
/// `setup_s` is the median. A half-second set-up so runs five times, a
/// ten-millisecond one twenty-five.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Runs `setup(k)` for `k = 0, 1, …` by the rule above. Returns what the
/// last call built and the median duration in seconds.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut seconds = Vec::with_capacity(SETUP_MAX);
    loop {
        let t0 = Instant::now();
        let built = setup(seconds.len())?;
        seconds.push(t0.elapsed().as_secs_f64());
        let enough = seconds.len() >= SETUP_MIN && started.elapsed() >= SETUP_BUDGET;
        if enough || seconds.len() == SETUP_MAX {
            return Ok((built, crate::stats::median(&seconds)));
        }
    }
}

/// The view-builder configuration of every engine the benchmark opens:
/// the server's documented default (`demo_config`: ARMA(1,0)-GARCH over a
/// 60-reading window, σ-cache on) with the fork-join width pinned.
pub fn engine_config() -> ViewBuilderConfig {
    ViewBuilderConfig {
        threads: THREADS,
        ..tspdb_server::demo_config()
    }
}

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured window (fixed-time workloads) or the scale
    /// of the fixed work (ingest workloads), in seconds.
    pub seconds: f64,
    /// Traced pass: half the window untraced as the overhead reference,
    /// half with spans and replays, per-layer metrics out.
    pub trace: bool,
    /// Smoke sizes: same code paths and checks over small inputs.
    pub quick: bool,
    /// Scratch root (`<target dir>/tspbench`).
    pub work_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every input the engine was fed.
    pub input_digest: String,
    /// Metric values by catalogue name. An untraced run fills the
    /// end-to-end metrics and the diagnostics it can measure; a traced run
    /// fills the per-layer ones.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations behind `op_p50_ms`.
    pub samples: u64,
    pub spans: Vec<Span>,
    /// The per-layer table over `spans` (traced runs).
    pub layers: Option<LayerTable>,
    /// The first few failure messages, for the human report.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// The end-to-end triple every workload reports from an untraced run.
    pub fn set_end_to_end(&mut self, work: f64, wall_s: f64, latencies_ms: &[f64], setup_s: f64) {
        self.set("work_per_s", work / wall_s);
        self.set("setup_s", setup_s);
        self.set_latency(latencies_ms);
    }

    /// The percentile rule over the primary operation's untraced
    /// latencies: the median, and as diagnostics the highest percentile
    /// the sample supports, which one that is, and the sample count.
    pub fn set_latency(&mut self, latencies_ms: &[f64]) {
        let summary = crate::stats::summarize(latencies_ms);
        self.samples = summary.count as u64;
        self.set("op_p50_ms", summary.p50);
        self.set("op_tail_ms", summary.tail);
        self.set("op_tail_percentile", summary.tail_pct);
        self.set("op_samples", summary.count as f64);
    }

    /// The trace-derived metrics every traced run reports. The overhead
    /// is the mean duration of the workload's primary operation with
    /// tracing on, over the same mean from the untraced half, minus one;
    /// the latency diagnostics come from the untraced half too.
    pub fn set_trace(&mut self, table: LayerTable, traced_op_ms: &[f64], untraced_op_ms: &[f64]) {
        self.set_latency(untraced_op_ms);
        let (traced, untraced) = (
            crate::stats::mean(traced_op_ms),
            crate::stats::mean(untraced_op_ms),
        );
        if untraced > 0.0 {
            self.set("trace_overhead_ratio", traced / untraced - 1.0);
        }
        self.set("trace.spans", self.spans.len() as f64);
        self.set("trace.unattributed_share", table.unattributed_share());
        for (metric, prefixes) in LAYER_SHARES {
            self.set(metric, table.share(prefixes));
        }
        self.layers = Some(table);
    }
}

/// `share.*` metrics: the layers whose span self times each one sums.
pub const LAYER_SHARES: [(&str, &[&str]); 7] = [
    ("share.builder", &["builder.", "models."]),
    ("share.wire", &["wire."]),
    ("share.server", &["server."]),
    ("share.sql_plan", &["sql.", "plan."]),
    ("share.exec", &["exec."]),
    ("share.storage", &["storage."]),
    ("share.ingest_engine", &["ingest.", "engine."]),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogue entry. `bound` is set on the gated end-to-end metrics
/// only: the share of the parent's median by which the metric may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Every metric by name, in the order `BENCHMARK.json` lists them: the
/// gated end-to-end metrics first, then the ungated per-layer metrics and
/// diagnostics. README.md defines each one.
pub const METRICS: [MetricDef; 52] = [
    gated("work_per_s", "1/s", Higher, 0.15),
    gated("op_p50_ms", "ms", Lower, 0.2),
    gated("setup_s", "s", Lower, 0.25),
    // End-to-end diagnostics: defined on some workloads only, or too few
    // samples per run to repeat within a bound, so ungated.
    layer("op_tail_ms", "ms", Lower),
    layer("op_tail_percentile", "%", Higher),
    layer("op_samples", "count", Higher),
    layer("read_p50_ms", "ms", Lower),
    layer("recovery_s", "s", Lower),
    layer("disk_bytes_per_user_byte", "ratio", Lower),
    // core::builder / models / core::sigma_cache
    layer("builder.inference_s", "s", Lower),
    layer("builder.generation_s", "s", Lower),
    layer("builder.register_s", "s", Lower),
    layer("builder.failures", "count", Lower),
    layer("sigma_cache.hit_ratio", "ratio", Higher),
    layer("models.fit_us", "us", Lower),
    // wire
    layer("wire.encode_req_us", "us", Lower),
    layer("wire.decode_resp_us", "us", Lower),
    layer("wire.encode_resp_us", "us", Lower),
    layer("wire.resp_bytes", "B", Lower),
    // server
    layer("server.self_us", "us", Lower),
    layer("server.requests", "count", Higher),
    // probdb::sql / plan / plan_cache
    layer("sql.parse_us", "us", Lower),
    layer("plan.plan_us", "us", Lower),
    layer("plan_cache.hit_ratio", "ratio", Higher),
    layer("plan_cache.evictions", "count", Lower),
    // probdb strategies
    layer("exec.exact_us", "us", Lower),
    layer("exec.worlds_us", "us", Lower),
    layer("exec.synopsis_us", "us", Lower),
    layer("exec.rows_out_per_row_scanned", "ratio", Higher),
    // storage
    layer("storage.pager_hit_ratio", "ratio", Higher),
    layer("storage.cold_scan_ms", "ms", Lower),
    layer("storage.resident_scan_ms", "ms", Lower),
    layer("storage.wal_fsyncs_per_krow", "1/krow", Lower),
    layer("storage.wal_bytes_per_user_byte", "ratio", Lower),
    layer("storage.pages_written", "count", Lower),
    layer("storage.checkpoint_ms", "ms", Lower),
    layer("storage.checkpoint_stalls", "count", Lower),
    // ingest
    layer("ingest.append_us", "us", Lower),
    layer("ingest.flush_ms", "ms", Lower),
    layer("ingest.rows_per_flush", "count", Higher),
    // core::concurrent
    layer("engine.maintain_ms_per_batch_first", "ms", Lower),
    layer("engine.maintain_ms_per_batch_last", "ms", Lower),
    // the traced run itself
    layer("trace_overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Higher),
    layer("trace.unattributed_share", "ratio", Lower),
    layer("share.builder", "ratio", Lower),
    layer("share.wire", "ratio", Lower),
    layer("share.server", "ratio", Lower),
    layer("share.sql_plan", "ratio", Lower),
    layer("share.exec", "ratio", Lower),
    layer("share.storage", "ratio", Lower),
    layer("share.ingest_engine", "ratio", Lower),
];

pub fn end_to_end_metrics() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.bound.is_some())
}

pub fn per_layer_metrics() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.bound.is_none())
}

/// A scratch directory removed when the guard drops, whatever way the
/// workload ends.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `root/<name>-<pid>` afresh.
    pub fn create(root: &Path, name: &str) -> Result<ScratchDir, String> {
        let path = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of the regular files directly inside `dir` whose name passes
/// `keep`.
pub fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| keep(&e.file_name().to_string_lossy()))
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_match_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        let mut seen = std::collections::BTreeSet::new();
        for m in &METRICS {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
            if let Some(bound) = m.bound {
                assert!(bound <= 0.25);
                assert!(manifest.contains(&format!("{entry}, \"bound\": {bound}}}")));
            }
        }
        assert_eq!(end_to_end_metrics().count(), 3);
        for (metric, _) in LAYER_SHARES {
            assert!(seen.contains(metric));
        }
    }

    #[test]
    fn cheap_setups_repeat_up_to_the_cap_and_report_the_median() {
        let mut calls = Vec::new();
        let (last, median) = repeat_setup(|k| {
            calls.push(k);
            Ok(k * 10)
        })
        .unwrap();
        assert_eq!(calls, (0..SETUP_MAX).collect::<Vec<_>>());
        assert_eq!(last, (SETUP_MAX - 1) * 10);
        assert!((0.0..0.1).contains(&median));
        assert_eq!(
            repeat_setup(|_| Err::<(), _>("boom".to_string())),
            Err("boom".to_string())
        );
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        // Beside the test binary, so the test stays inside the target dir.
        let exe = std::env::current_exe().unwrap();
        let root = exe.parent().unwrap().join("tspbench-unit");
        let path = {
            let dir = ScratchDir::create(&root, "unit").unwrap();
            std::fs::write(dir.path().join("a.db"), b"1234").unwrap();
            std::fs::write(dir.path().join("b.tmp"), b"12").unwrap();
            assert_eq!(dir_bytes(dir.path(), |n| n.ends_with(".db")), 4);
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
