//! The Ω-View builder (paper Section VI): materialising probabilistic
//! views from inferred densities.
//!
//! The builder runs a dynamic density metric over every sliding window in
//! the requested time interval, records the model table `(t, r̂_t, σ̂_t)`
//! (the paper stores "parameters for generating the probabilities", after
//! Jampani et al.), and then evaluates the probability value generation
//! query (eq. 9) for each tuple — either directly, or through the σ-cache.
//!
//! Both passes are embarrassingly parallel across windows (the metrics are
//! stateless between windows and the σ-cache is lock-free), so the builder
//! fans each pass out over contiguous window segments via
//! [`tspdb_stats::parallel`]. Segment results are concatenated in order, making
//! the output bit-for-bit identical to a sequential build for any thread
//! count.

use crate::error::CoreError;
use crate::metrics::{make_metric, MetricConfig, MetricKind};
use crate::omega::{probability_values, OmegaSpec, ProbabilityValue};
use crate::sigma_cache::{direct_probability_values, CacheStats, SigmaCache, SigmaCacheConfig};
use std::time::{Duration, Instant};
use tspdb_probdb::{Column, ColumnType, ProbTable, Schema};
use tspdb_stats::parallel::{effective_threads, map_segments, try_map_segments};
use tspdb_stats::Density;
use tspdb_timeseries::TimeSeries;

/// Configuration of the Ω-view builder.
#[derive(Debug, Clone, Copy)]
pub struct ViewBuilderConfig {
    /// Which dynamic density metric infers the densities.
    pub metric: MetricKind,
    /// Parameters of that metric.
    pub metric_config: MetricConfig,
    /// Sliding-window length `H`.
    pub window: usize,
    /// σ-cache configuration; `None` evaluates every tuple directly (the
    /// "naive" baseline of Fig. 14a).
    pub cache: Option<SigmaCacheConfig>,
    /// Worker threads for the build: `0` uses one per available core, `1`
    /// builds sequentially on the calling thread. The produced view is
    /// identical for every setting.
    pub threads: usize,
}

impl Default for ViewBuilderConfig {
    fn default() -> Self {
        ViewBuilderConfig {
            metric: MetricKind::ArmaGarch,
            metric_config: MetricConfig::default(),
            window: 60,
            cache: Some(SigmaCacheConfig::default()),
            threads: 0,
        }
    }
}

/// One row of the model table: the stored distribution parameters for one
/// timestamp (`r̂_t`, `σ̂_t`), mirroring the framework picture (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelRow {
    /// Timestamp.
    pub time: i64,
    /// Expected true value `r̂_t`.
    pub expected: f64,
    /// Inferred standard deviation `σ̂_t`.
    pub sigma: f64,
}

/// A materialised probabilistic view plus build diagnostics.
#[derive(Debug, Clone)]
pub struct BuiltView {
    /// The tuple-independent view: schema `(t, lambda, lo, hi)` with a
    /// probability per row — the paper's `prob_view`.
    pub view: ProbTable,
    /// The model table backing the view.
    pub model: Vec<ModelRow>,
    /// σ-cache statistics when a cache was used.
    pub cache_stats: Option<CacheStats>,
    /// Number of distributions the cache stored.
    pub cache_len: Option<usize>,
    /// Cache memory footprint in bytes.
    pub cache_bytes: Option<usize>,
    /// The cache ladder's resolved ratio threshold `d_s`: with min σ̂ it
    /// fixes which rung answers each σ̂.
    pub ratio_threshold: Option<f64>,
    /// Wall-clock time spent inferring densities.
    pub inference_time: Duration,
    /// Wall-clock time spent generating probability values (the part the
    /// σ-cache accelerates).
    pub generation_time: Duration,
    /// Windows where the metric failed and no tuples were emitted.
    pub failures: usize,
    /// Worker threads the build fanned out over.
    pub threads_used: usize,
}

/// The outcome of the inference pass: the model table as densities, in
/// time order, plus the pass's diagnostics.
#[derive(Debug, Clone)]
pub(crate) struct InferredModel {
    /// One `(timestamp, density)` per window the metric could fit.
    pub densities: Vec<(i64, Density)>,
    /// Windows where the metric failed and no density was produced.
    pub failures: usize,
    /// Wall-clock time of the pass.
    pub inference_time: Duration,
    /// Worker threads the pass fanned out over.
    pub threads_used: usize,
}

/// Schema of generated views: `(t, lambda, lo, hi)` + tuple probability.
pub(crate) fn view_schema() -> Schema {
    Schema::of(&[
        ("t", ColumnType::Int),
        ("lambda", ColumnType::Int),
        ("lo", ColumnType::Float),
        ("hi", ColumnType::Float),
    ])
}

/// The Ω-view builder.
#[derive(Debug, Clone)]
pub struct OmegaViewBuilder {
    config: ViewBuilderConfig,
}

impl OmegaViewBuilder {
    /// Creates a builder after validating the configuration.
    pub fn new(config: ViewBuilderConfig) -> Result<Self, CoreError> {
        config.metric_config.validate()?;
        if config.window == 0 {
            return Err(CoreError::InvalidConfig(
                "view builder window must be positive".into(),
            ));
        }
        Ok(OmegaViewBuilder { config })
    }

    /// The active configuration.
    pub(crate) fn config(&self) -> &ViewBuilderConfig {
        &self.config
    }

    /// Pass 1 — the model table: infers a density for every window of
    /// `series` whose timestamp lies in `time_bounds` (inclusive; `None`
    /// means the whole series). Window history may extend before the bound
    /// — the interval restricts which timestamps are *emitted*, matching
    /// the `WHERE` semantics of the paper's Fig. 7 query.
    pub(crate) fn infer(
        &self,
        series: &TimeSeries,
        time_bounds: Option<(i64, i64)>,
    ) -> Result<InferredModel, CoreError> {
        let h = self.config.window;
        let metric = make_metric(self.config.metric, self.config.metric_config)?;
        if h < metric.min_window() {
            return Err(CoreError::WindowTooShort {
                needed: metric.min_window(),
                got: h,
            });
        }
        drop(metric); // each worker segment makes its own instance
        let values = series.values();
        let times = series.timestamps();

        // Indices of the windows whose tuples the view emits.
        let emitted: Vec<usize> = (h..values.len())
            .filter(|&t| match time_bounds {
                Some((lo, hi)) => times[t] >= lo && times[t] <= hi,
                None => true,
            })
            .collect();
        let threads_used = effective_threads(self.config.threads, emitted.len());

        // One segment of windows per worker. Metrics are stateless across
        // windows, so each worker's fresh instance produces the sequential
        // result.
        let started = Instant::now();
        let segments = try_map_segments(emitted.len(), self.config.threads, |range| {
            let mut metric = make_metric(self.config.metric, self.config.metric_config)?;
            let mut densities: Vec<(i64, Density)> = Vec::with_capacity(range.len());
            let mut failures = 0usize;
            for &t in &emitted[range] {
                match metric.infer(&values[t - h..t]) {
                    Ok(inf) => densities.push((times[t], inf.density)),
                    Err(_) => failures += 1,
                }
            }
            Ok::<_, CoreError>((densities, failures))
        })?;
        let mut densities: Vec<(i64, Density)> = Vec::with_capacity(emitted.len());
        let mut failures = 0usize;
        for (segment, segment_failures) in segments {
            densities.extend(segment);
            failures += segment_failures;
        }
        Ok(InferredModel {
            densities,
            failures,
            inference_time: started.elapsed(),
            threads_used,
        })
    }

    /// The σ-cache for a view whose Gaussian σ̂ span the given
    /// [`sigma_range`] (the paper computes min/max σ̂ over the tuples
    /// matching the `WHERE` clause) — `None` when no cache is configured or
    /// the view holds no Gaussian density.
    pub(crate) fn ladder(
        &self,
        (lo, hi): (f64, f64),
        omega: OmegaSpec,
    ) -> Result<Option<SigmaCache>, CoreError> {
        match self.config.cache {
            Some(cfg) if lo.is_finite() && hi > 0.0 => {
                Ok(Some(SigmaCache::build(lo, hi, omega, cfg)?))
            }
            _ => Ok(None),
        }
    }

    /// Pass 2 — evaluates the probability value generation query (eq. 9)
    /// for every density, through `cache` when there is one. The densities
    /// may be any time-ordered slice of the model the cache was laid out
    /// for: a tuple depends only on its own density and the ladder.
    pub(crate) fn generate(
        &self,
        densities: &[(i64, Density)],
        cache: Option<&SigmaCache>,
        omega: OmegaSpec,
        view_name: &str,
    ) -> Result<ProbTable, CoreError> {
        // The σ-cache is lock-free (`&self` lookups), so all workers share
        // it directly.
        let tuple_segments = map_segments(densities.len(), self.config.threads, |range| {
            densities[range]
                .iter()
                .map(|(time, density)| {
                    let rows: Vec<ProbabilityValue> = match (cache, density) {
                        (Some(c), Density::Gaussian(g)) => c.probability_values(g.mean(), g.std()),
                        (None, Density::Gaussian(g)) => {
                            direct_probability_values(g.mean(), g.std(), &omega)
                        }
                        // Uniform densities bypass the Gaussian cache.
                        (_, other) => probability_values(other, &omega),
                    };
                    (*time, rows)
                })
                .collect::<Vec<_>>()
        });

        // Assembly: segment order == time order, so the view is identical
        // to the sequential build. Tuples go straight into the view's
        // columns; `from_columns` checks the probabilities as `insert` did.
        let tuples = tuple_segments
            .iter()
            .flatten()
            .map(|(_, rows)| rows.len())
            .sum();
        let schema = view_schema();
        let mut columns = Column::for_schema(&schema, tuples);
        let mut probs = Vec::with_capacity(tuples);
        for (time, rows) in tuple_segments.into_iter().flatten() {
            for pv in rows {
                let [t, lambda, lo, hi] = &mut columns[..] else {
                    unreachable!("the view has four columns");
                };
                let pushed = t.push_int(time)
                    & lambda.push_int(pv.lambda)
                    & lo.push_float(pv.lo)
                    & hi.push_float(pv.hi);
                debug_assert!(pushed, "the view's column types");
                probs.push(pv.rho.clamp(0.0, 1.0));
            }
        }
        Ok(ProbTable::from_columns(view_name, schema, columns, probs)?)
    }

    /// Builds the probabilistic view for `series` over the Ω lattice:
    /// `OmegaViewBuilder::infer`, then `OmegaViewBuilder::generate`
    /// through the ladder over the inferred σ̂ range.
    pub fn build(
        &self,
        series: &TimeSeries,
        omega: OmegaSpec,
        view_name: &str,
        time_bounds: Option<(i64, i64)>,
    ) -> Result<BuiltView, CoreError> {
        self.build_from(&self.infer(series, time_bounds)?, omega, view_name)
    }

    /// [`OmegaViewBuilder::build`] from an inference pass already run —
    /// for callers that keep the densities as well.
    pub(crate) fn build_from(
        &self,
        inferred: &InferredModel,
        omega: OmegaSpec,
        view_name: &str,
    ) -> Result<BuiltView, CoreError> {
        let cache = self.ladder(sigma_range(&inferred.densities), omega)?;
        let gen_started = Instant::now();
        let view = self.generate(&inferred.densities, cache.as_ref(), omega, view_name)?;
        let generation_time = gen_started.elapsed();
        Ok(BuiltView {
            view,
            model: inferred
                .densities
                .iter()
                .map(|(time, density)| ModelRow {
                    time: *time,
                    expected: density.mean(),
                    sigma: density.std(),
                })
                .collect(),
            cache_stats: cache.as_ref().map(|c| c.stats()),
            cache_len: cache.as_ref().map(|c| c.len()),
            cache_bytes: cache.as_ref().map(|c| c.memory_bytes()),
            ratio_threshold: cache.as_ref().map(|c| c.ratio_threshold()),
            inference_time: inferred.inference_time,
            generation_time,
            failures: inferred.failures,
            threads_used: inferred.threads_used,
        })
    }
}

/// `(min σ̂, max σ̂)` over the Gaussian densities — the spread a view's
/// σ-cache ladder is laid out over. `(∞, 0)` when there is none, so the
/// ranges of two model segments merge by plain `min`/`max`.
pub(crate) fn sigma_range(densities: &[(i64, Density)]) -> (f64, f64) {
    densities
        .iter()
        .filter(|(_, d)| matches!(d, Density::Gaussian(_)))
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), (_, d)| {
            (lo.min(d.std()), hi.max(d.std()))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_timeseries::generate::TemperatureGenerator;

    fn series(n: usize) -> TimeSeries {
        TemperatureGenerator::default().generate(n)
    }

    fn builder(cache: Option<SigmaCacheConfig>) -> OmegaViewBuilder {
        OmegaViewBuilder::new(ViewBuilderConfig {
            cache,
            ..ViewBuilderConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn builds_view_with_expected_shape() {
        let s = series(200);
        let omega = OmegaSpec::new(0.5, 8).unwrap();
        let built = builder(None).build(&s, omega, "pv", None).unwrap();
        // 200 − 60 emitted timestamps × 8 cells.
        assert_eq!(built.model.len(), 140);
        assert_eq!(built.view.len(), 140 * 8);
        assert_eq!(built.view.name(), "pv");
        assert!(built.failures == 0);
        // Every tuple's probability is valid and per-t masses sum ≤ 1.
        let mut per_t = std::collections::BTreeMap::new();
        for (row, p) in built.view.iter() {
            assert!((0.0..=1.0).contains(&p));
            *per_t.entry(row[0].as_i64().unwrap()).or_insert(0.0) += p;
        }
        for (&t, &mass) in &per_t {
            assert!(mass <= 1.0 + 1e-9, "t {t}: mass {mass}");
            assert!(mass > 0.5, "t {t}: lattice too narrow ({mass})");
        }
    }

    #[test]
    fn cached_and_naive_views_agree_within_tolerance() {
        let s = series(260);
        let omega = OmegaSpec::new(0.2, 20).unwrap();
        let naive = builder(None).build(&s, omega, "pv", None).unwrap();
        let cached = builder(Some(SigmaCacheConfig::default()))
            .build(&s, omega, "pv", None)
            .unwrap();
        assert_eq!(naive.view.len(), cached.view.len());
        let mut max_err = 0.0f64;
        for ((_, pn), (_, pc)) in naive.view.iter().zip(cached.view.iter()) {
            max_err = max_err.max((pn - pc).abs());
        }
        // H′ = 0.01 keeps per-cell error tiny.
        assert!(max_err < 0.02, "cache error {max_err}");
        let stats = cached.cache_stats.unwrap();
        assert!(stats.hits > 0);
        assert_eq!(stats.misses, 0);
        assert!(cached.cache_len.unwrap() >= 1);
    }

    #[test]
    fn time_bounds_restrict_emitted_tuples() {
        let s = series(200); // timestamps 0, 120, 240, …
        let omega = OmegaSpec::new(0.5, 4).unwrap();
        let t_lo = s.timestamps()[100];
        let t_hi = s.timestamps()[109];
        let built = builder(None)
            .build(&s, omega, "pv", Some((t_lo, t_hi)))
            .unwrap();
        assert_eq!(built.model.len(), 10);
        for row in built.model {
            assert!(row.time >= t_lo && row.time <= t_hi);
        }
    }

    #[test]
    fn model_rows_match_view_lattice_centres() {
        let s = series(120);
        let omega = OmegaSpec::new(0.5, 4).unwrap();
        let built = builder(None).build(&s, omega, "pv", None).unwrap();
        // For each model row, the λ = 0 tuple's lo equals r̂.
        for m in &built.model {
            let lo0 = built
                .view
                .iter()
                .find(|(row, _)| row[0].as_i64() == Some(m.time) && row[1].as_i64() == Some(0))
                .map(|(row, _)| row[2].as_f64().unwrap())
                .unwrap();
            assert!((lo0 - m.expected).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_metric_views_bypass_cache() {
        let s = series(150);
        let omega = OmegaSpec::new(0.5, 4).unwrap();
        let b = OmegaViewBuilder::new(ViewBuilderConfig {
            metric: MetricKind::UniformThresholding,
            metric_config: MetricConfig {
                threshold_u: 1.0,
                ..MetricConfig::default()
            },
            window: 60,
            cache: Some(SigmaCacheConfig::default()),
            ..ViewBuilderConfig::default()
        })
        .unwrap();
        let built = b.build(&s, omega, "pv", None).unwrap();
        assert!(!built.view.is_empty());
        // Uniform densities never hit the Gaussian ladder.
        if let Some(stats) = built.cache_stats {
            assert_eq!(stats.hits, 0);
        }
    }

    #[test]
    fn window_shorter_than_metric_minimum_is_rejected() {
        let err = OmegaViewBuilder::new(ViewBuilderConfig {
            window: 10,
            ..ViewBuilderConfig::default()
        })
        .unwrap()
        .build(&series(100), OmegaSpec::new(0.5, 4).unwrap(), "pv", None)
        .unwrap_err();
        assert!(matches!(err, CoreError::WindowTooShort { .. }));
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        let s = series(220);
        let omega = OmegaSpec::new(0.2, 10).unwrap();
        for cache in [None, Some(SigmaCacheConfig::default())] {
            let sequential = OmegaViewBuilder::new(ViewBuilderConfig {
                cache,
                threads: 1,
                ..ViewBuilderConfig::default()
            })
            .unwrap()
            .build(&s, omega, "pv", None)
            .unwrap();
            for threads in [2, 3, 8] {
                let parallel = OmegaViewBuilder::new(ViewBuilderConfig {
                    cache,
                    threads,
                    ..ViewBuilderConfig::default()
                })
                .unwrap()
                .build(&s, omega, "pv", None)
                .unwrap();
                assert_eq!(parallel.view, sequential.view, "threads = {threads}");
                assert_eq!(parallel.model, sequential.model, "threads = {threads}");
                assert_eq!(parallel.failures, sequential.failures);
            }
        }
    }

    #[test]
    fn thread_count_is_reported() {
        let s = series(120);
        let omega = OmegaSpec::new(0.5, 4).unwrap();
        let built = OmegaViewBuilder::new(ViewBuilderConfig {
            threads: 2,
            ..ViewBuilderConfig::default()
        })
        .unwrap()
        .build(&s, omega, "pv", None)
        .unwrap();
        assert_eq!(built.threads_used, 2);
    }

    #[test]
    fn empty_time_range_builds_empty_view() {
        let s = series(120);
        let omega = OmegaSpec::new(0.5, 4).unwrap();
        let built = builder(None)
            .build(&s, omega, "pv", Some((i64::MAX - 1, i64::MAX)))
            .unwrap();
        assert!(built.view.is_empty());
        assert!(built.model.is_empty());
    }
}
