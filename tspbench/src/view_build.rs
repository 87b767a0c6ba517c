//! `view_build`: the paper's hot path. Repeated `CREATE VIEW … AS DENSITY`
//! over distinct seeded temperature series, in process — metric inference,
//! σ-cache lookups, Ω-view materialisation and synopsis registration do
//! all the work; wire, server and storage do none.

use crate::common::{engine_config, repeat_setup, Outcome, RunCfg};
use crate::prng::{Digest, Prng};
use crate::stats::{self, Means};
use crate::trace::{LayerTable, Tracer};
use std::time::{Duration, Instant};
use tspdb_core::metrics::make_metric;
use tspdb_core::{SharedEngine, ViewBuilderConfig};
use tspdb_timeseries::generate::TemperatureGenerator;
use tspdb_timeseries::TimeSeries;
use tspdb_wire::canonical_result_bytes;

/// Windows timed through `make_metric(..).infer` in the traced pass.
const FIT_SAMPLES: usize = 256;

fn create_view_sql(source: usize) -> String {
    format!("CREATE VIEW v AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_{source}")
}

fn generate(cfg: &RunCfg) -> Vec<TimeSeries> {
    // Enough distinct series that a run never rebuilds one back to back,
    // and that per-series differences in fitting cost average out.
    let (count, readings) = if cfg.quick { (2, 1_000) } else { (8, 4_000) };
    let mut seeds = Prng::new(cfg.seed).fork("view_build/series");
    (0..count)
        .map(|_| {
            TemperatureGenerator {
                seed: seeds.next_u64(),
                ..TemperatureGenerator::default()
            }
            .generate(readings)
        })
        .collect()
}

fn load(series: &[TimeSeries], config: ViewBuilderConfig) -> Result<SharedEngine, String> {
    let engine = SharedEngine::new(config);
    for (i, s) in series.iter().enumerate() {
        engine
            .load_series(&format!("raw_{i}"), "r", s)
            .map_err(|e| format!("load raw_{i}: {e}"))?;
    }
    Ok(engine)
}

struct Window {
    latencies_ms: Vec<f64>,
    rows: f64,
    wall_s: f64,
    failed: u64,
}

/// When a measured window ends.
enum Until {
    Elapsed(Duration),
    /// After this many builds: the traced half repeats exactly the builds
    /// of the untraced half, because series differ in fitting cost and the
    /// overhead must compare like with like.
    Builds(usize),
}

/// Builds and drops views, walking the series in order. With a tracer,
/// each build is followed by a read of `last_build()` and recorded as
/// `op.build ⊃ builder.register ⊃ {builder.inference, builder.generation}`.
fn measure(
    engine: &SharedEngine,
    series: &[TimeSeries],
    until: Until,
    mut tracer: Option<(&mut Tracer, &mut Means)>,
) -> Window {
    let mut w = Window {
        latencies_ms: Vec::new(),
        rows: 0.0,
        wall_s: 0.0,
        failed: 0,
    };
    let started = Instant::now();
    let mut last_done = started;
    let mut i = 0;
    while match until {
        Until::Elapsed(length) => started.elapsed() < length,
        Until::Builds(count) => i < count,
    } {
        let source = i % series.len();
        i += 1;
        let sql = create_view_sql(source);
        let start_ns = tracer.as_ref().map(|(t, _)| t.now_ns());
        let t0 = Instant::now();
        let built = engine.execute(&sql);
        let took = t0.elapsed();
        last_done = Instant::now();
        match built {
            Ok(_) => {
                w.latencies_ms.push(took.as_secs_f64() * 1e3);
                w.rows += series[source].len() as f64;
            }
            Err(_) => w.failed += 1,
        }
        if let (Some((tracer, means)), Some(start_ns)) = (tracer.as_mut(), start_ns) {
            let end_ns = start_ns + took.as_nanos() as u64;
            if let Some(last) = engine.last_build() {
                let b = last.built;
                let op = tracer.root("op.build", start_ns, end_ns);
                let register = tracer.child(op, op, "builder.register", start_ns, end_ns);
                let (inference, generation) = (b.inference_time, b.generation_time);
                tracer.replayed(
                    op,
                    register,
                    start_ns,
                    end_ns,
                    &[
                        ("builder.inference", inference.as_nanos() as u64),
                        ("builder.generation", generation.as_nanos() as u64),
                    ],
                );
                means.add("inference_s", inference.as_secs_f64());
                means.add("generation_s", generation.as_secs_f64());
                means.add(
                    "register_s",
                    took.saturating_sub(inference + generation).as_secs_f64(),
                );
                means.add("failures", b.failures as f64);
                if let Some(cache) = b.cache_stats {
                    means.add("cache_hits", cache.hits as f64);
                    means.add("cache_lookups", cache.total() as f64);
                }
            }
        }
        if engine.execute("DROP VIEW v").is_err() {
            w.failed += 1;
        }
    }
    w.wall_s = (last_done - started).as_secs_f64();
    w
}

/// Times the metric fit on sampled windows: `op.fit ⊃ models.infer`.
fn fit_windows(cfg: &RunCfg, series: &[TimeSeries], tracer: &mut Tracer) -> Result<f64, String> {
    let config = engine_config();
    let mut metric =
        make_metric(config.metric, config.metric_config).map_err(|e| format!("metric: {e}"))?;
    let mut pick = Prng::new(cfg.seed).fork("view_build/fit");
    let mut fit_us = Vec::with_capacity(FIT_SAMPLES);
    for _ in 0..FIT_SAMPLES {
        let s = &series[pick.below(series.len() as u64) as usize];
        let end = config.window + pick.below((s.len() - config.window) as u64) as usize;
        let window = s.value_slice(end - config.window, end);
        let start_ns = tracer.now_ns();
        let inferred = metric.infer(window);
        let end_ns = tracer.now_ns();
        std::hint::black_box(&inferred);
        let op = tracer.root("op.fit", start_ns, end_ns);
        tracer.child(op, op, "models.infer", start_ns, end_ns);
        fit_us.push((end_ns - start_ns) as f64 / 1e3);
    }
    Ok(stats::median(&fit_us))
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: generate the series and load them into a fresh engine —
    // there is no cache to warm, the σ-cache is rebuilt by every build.
    // Milliseconds, so repeated; the median is reported.
    let ((series, engine), setup_s) = repeat_setup(|_| {
        let series = generate(cfg);
        let engine = load(&series, engine_config())?;
        Ok((series, engine))
    })?;
    let mut digest = Digest::new();
    for s in &series {
        digest.f64s(s.values());
    }
    out.input_digest = digest.hex();

    let length = Duration::from_secs_f64(cfg.seconds);
    if cfg.trace {
        let untraced = measure(&engine, &series, Until::Elapsed(length / 2), None);
        let mut tracer = Tracer::new(Instant::now(), 0, 1);
        let mut means = Means::default();
        let builds = untraced.latencies_ms.len() + untraced.failed as usize;
        let traced = measure(
            &engine,
            &series,
            Until::Builds(builds),
            Some((&mut tracer, &mut means)),
        );
        out.attempted = (untraced.latencies_ms.len() + traced.latencies_ms.len()) as u64
            + untraced.failed
            + traced.failed;
        out.failed = untraced.failed + traced.failed;
        let table = LayerTable::of(&tracer.spans);
        out.set("builder.inference_s", means.mean("inference_s"));
        out.set("builder.generation_s", means.mean("generation_s"));
        out.set("builder.register_s", means.mean("register_s"));
        out.set("builder.failures", means.sum("failures"));
        let lookups = means.sum("cache_lookups");
        if lookups > 0.0 {
            out.set("sigma_cache.hit_ratio", means.sum("cache_hits") / lookups);
        }
        // After the table: the fits are their own ops and must not dilute
        // the build's shares.
        out.set("models.fit_us", fit_windows(cfg, &series, &mut tracer)?);
        out.spans = tracer.spans;
        out.set_trace(table, &traced.latencies_ms, &untraced.latencies_ms);
    } else {
        let w = measure(&engine, &series, Until::Elapsed(length), None);
        out.attempted = w.latencies_ms.len() as u64 + w.failed;
        out.failed = w.failed;
        out.set_end_to_end(w.rows, w.wall_s, &w.latencies_ms, setup_s);
    }

    // Correctness: the two-thread build of the first series must equal a
    // one-thread build tuple for tuple, probability for probability.
    let fingerprint = |engine: &SharedEngine| -> Result<Vec<u8>, String> {
        engine
            .execute(&create_view_sql(0))
            .map_err(|e| format!("reference build: {e}"))?;
        let rows = engine
            .query("SELECT * FROM v THRESHOLD 0.0")
            .map_err(|e| format!("reference scan: {e}"))?;
        Ok(canonical_result_bytes(&rows))
    };
    let sequential = load(
        &series[..1],
        ViewBuilderConfig {
            threads: 1,
            ..engine_config()
        },
    )?;
    let (parallel, reference) = (fingerprint(&engine)?, fingerprint(&sequential)?);
    out.check(parallel == reference && !reference.is_empty(), || {
        "view built on 2 threads differs from the 1-thread build".into()
    });
    Ok(out)
}
