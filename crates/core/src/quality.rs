//! Density distance: the paper's quality measure for dynamic density
//! metrics (Section II-B).
//!
//! The true density `p̂_t` is unobservable, so quality is measured
//! indirectly through the probability integral transform (PIT): if the
//! inferred densities match the data-generating ones, the transforms
//! `z_i = P_i(R_i ≤ r_i)` are i.i.d. uniform on (0, 1) (Diebold et al.).
//! The *density distance* is the Euclidean distance between the
//! histogram-approximated empirical CDF `Q_Z` of the transforms and the
//! ideal uniform CDF `U_Z` (eq. 1) — smaller is better, zero is perfect.

use crate::error::CoreError;
use crate::metrics::DynamicDensityMetric;
use std::time::{Duration, Instant};
use tspdb_stats::descriptive::Histogram;
use tspdb_timeseries::TimeSeries;

/// Number of histogram cells used to approximate `Q_Z`; the paper specifies
/// "a histogram approximation method" without the count, and the distances
/// it reports (UT/VT up to ≈ 3) are consistent with ~100 cells.
pub(crate) const DEFAULT_PIT_BINS: usize = 100;

/// Computes the density distance (eq. 1) of a PIT sample with the given
/// number of histogram cells.
///
/// Returns `NaN` on an empty sample. The maximum possible value for `bins`
/// cells is `sqrt(Σ_b U(x_b)²) ≈ sqrt(bins / 3)` (all transforms piled at
/// zero), ≈ 5.77 for 100 cells.
pub(crate) fn density_distance_with_bins(pits: &[f64], bins: usize) -> f64 {
    if pits.is_empty() {
        return f64::NAN;
    }
    let mut hist = Histogram::new(0.0, 1.0, bins);
    for &z in pits {
        hist.push(z);
    }
    let qz = hist.cdf();
    let mut acc = 0.0;
    for (b, q) in qz.iter().enumerate() {
        let u = hist.right_edge(b); // ideal uniform CDF at the cell edge
        acc += (u - q) * (u - q);
    }
    acc.sqrt()
}

/// [`density_distance_with_bins`] at the default cell count.
pub(crate) fn density_distance(pits: &[f64]) -> f64 {
    density_distance_with_bins(pits, DEFAULT_PIT_BINS)
}

/// Result of evaluating one metric over one series.
#[derive(Debug, Clone)]
pub struct MetricEvaluation {
    /// The density distance (eq. 1).
    pub density_distance: f64,
    /// The PIT values `z_i`, in series order.
    pub pits: Vec<f64>,
    /// Number of successful inferences.
    pub inferences: usize,
    /// Number of windows where the metric failed (degenerate data, …).
    pub failures: usize,
    /// Total wall-clock time spent inside `infer`.
    pub total_time: Duration,
}

impl MetricEvaluation {
    /// Mean wall-clock time per density inference — the quantity of the
    /// paper's Fig. 11.
    pub fn avg_time(&self) -> Duration {
        if self.inferences == 0 {
            Duration::ZERO
        } else {
            self.total_time / self.inferences as u32
        }
    }
}

/// Evaluates a metric over every sliding window of a series (paper
/// Section VII-A): for each `t ≥ H`, infer `p_t` from `S^H_{t-1}` and
/// record the PIT of the observed `r_t`; the density distance of the PIT
/// sample is the metric's quality at window size `H`.
///
/// `stride` > 1 subsamples the windows (evaluating every `stride`-th
/// target) — used to keep the Kalman-GARCH sweeps tractable, exactly as
/// sub-sampling does not bias the PIT distribution.
pub fn evaluate_metric(
    metric: &mut dyn DynamicDensityMetric,
    series: &TimeSeries,
    h: usize,
    stride: usize,
) -> Result<MetricEvaluation, CoreError> {
    if h < metric.min_window() {
        return Err(CoreError::WindowTooShort {
            needed: metric.min_window(),
            got: h,
        });
    }
    if series.len() <= h {
        return Err(CoreError::WindowTooShort {
            needed: h + 1,
            got: series.len(),
        });
    }
    let stride = stride.max(1);
    let values = series.values();
    let mut pits = Vec::new();
    let mut failures = 0usize;
    let mut total_time = Duration::ZERO;
    let mut t = h;
    while t < values.len() {
        let window = &values[t - h..t];
        let started = Instant::now();
        match metric.infer(window) {
            Ok(inf) => {
                total_time += started.elapsed();
                pits.push(inf.density.pit(values[t]));
            }
            Err(_) => {
                total_time += started.elapsed();
                failures += 1;
            }
        }
        t += stride;
    }
    let inferences = pits.len();
    Ok(MetricEvaluation {
        density_distance: density_distance(&pits),
        pits,
        inferences,
        failures,
        total_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ArmaGarch, MetricConfig, UniformThresholding, VariableThresholding};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tspdb_timeseries::generate::ArmaGarchGenerator;

    #[test]
    fn uniform_pits_give_near_zero_distance() {
        let mut rng = StdRng::seed_from_u64(4);
        let pits: Vec<f64> = (0..20_000).map(|_| rng.gen_range(0.0..1.0)).collect();
        let d = density_distance(&pits);
        assert!(d < 0.15, "uniform sample distance {d}");
    }

    #[test]
    fn degenerate_pits_give_maximal_distance() {
        // All mass at zero: distance ≈ sqrt(Σ U(x)²) ≈ sqrt(bins/3).
        let pits = vec![0.0; 1000];
        let d = density_distance(&pits);
        let theo = (DEFAULT_PIT_BINS as f64 / 3.0).sqrt();
        assert!((d - theo).abs() < 0.35, "distance {d} vs ≈ {theo}");
    }

    #[test]
    fn distance_orders_calibration_quality() {
        // PITs from a slightly miscalibrated density must score between
        // perfect and degenerate.
        let mut rng = StdRng::seed_from_u64(5);
        let skewed: Vec<f64> = (0..5000)
            .map(|_| rng.gen_range(0.0f64..1.0).powf(1.5))
            .collect();
        let uniform: Vec<f64> = (0..5000).map(|_| rng.gen_range(0.0..1.0)).collect();
        let d_skew = density_distance(&skewed);
        let d_unif = density_distance(&uniform);
        assert!(d_skew > d_unif * 2.0, "skew {d_skew} vs uniform {d_unif}");
    }

    #[test]
    fn empty_sample_is_nan() {
        assert!(density_distance(&[]).is_nan());
    }

    #[test]
    fn bin_count_changes_scale_not_ordering() {
        let mut rng = StdRng::seed_from_u64(6);
        let good: Vec<f64> = (0..3000).map(|_| rng.gen_range(0.0..1.0)).collect();
        let bad: Vec<f64> = (0..3000).map(|_| rng.gen_range(0.0f64..0.3)).collect();
        for bins in [20, 50, 100, 200] {
            let dg = density_distance_with_bins(&good, bins);
            let db = density_distance_with_bins(&bad, bins);
            assert!(db > dg, "bins {bins}: ordering violated ({db} vs {dg})");
        }
    }

    #[test]
    fn garch_metric_beats_naive_metrics_on_garch_data() {
        // The Fig. 10 headline on a controlled data-generating process: a
        // conditional-variance-aware metric is better calibrated than
        // fixed/window-variance metrics on heteroskedastic data.
        let series = ArmaGarchGenerator {
            seed: 31,
            c: 0.0,
            phi: 0.6,
            theta: 0.0,
            alpha0: 0.02,
            alpha1: 0.25,
            beta1: 0.70,
        }
        .generate(1500);
        let h = 120;
        let cfg = MetricConfig {
            p: 1,
            q: 0,
            threshold_u: 0.5,
            ..MetricConfig::default()
        };
        let mut ut = UniformThresholding::new(cfg).unwrap();
        let mut vt = VariableThresholding::new(cfg).unwrap();
        let mut ag = ArmaGarch::new(cfg).unwrap();
        let d_ut = evaluate_metric(&mut ut, &series, h, 1)
            .unwrap()
            .density_distance;
        let d_vt = evaluate_metric(&mut vt, &series, h, 1)
            .unwrap()
            .density_distance;
        let d_ag = evaluate_metric(&mut ag, &series, h, 1)
            .unwrap()
            .density_distance;
        assert!(
            d_ag < d_vt && d_ag < d_ut,
            "ARMA-GARCH {d_ag} not best (UT {d_ut}, VT {d_vt})"
        );
    }

    #[test]
    fn stride_subsampling_keeps_distance_comparable() {
        let series = ArmaGarchGenerator::default().generate(2000);
        let cfg = MetricConfig {
            p: 1,
            ..MetricConfig::default()
        };
        let mut m1 = ArmaGarch::new(cfg).unwrap();
        let mut m4 = ArmaGarch::new(cfg).unwrap();
        let full = evaluate_metric(&mut m1, &series, 100, 1).unwrap();
        let sub = evaluate_metric(&mut m4, &series, 100, 4).unwrap();
        assert!(sub.inferences * 4 >= full.inferences);
        assert!(
            (full.density_distance - sub.density_distance).abs() < 0.6,
            "full {} vs strided {}",
            full.density_distance,
            sub.density_distance
        );
    }

    #[test]
    fn evaluation_validates_window() {
        let series = ArmaGarchGenerator::default().generate(50);
        let mut m = ArmaGarch::new(MetricConfig::default()).unwrap();
        assert!(matches!(
            evaluate_metric(&mut m, &series, 5, 1),
            Err(CoreError::WindowTooShort { .. })
        ));
        assert!(matches!(
            evaluate_metric(&mut m, &series, 60, 1),
            Err(CoreError::WindowTooShort { .. })
        ));
    }

    #[test]
    fn avg_time_divides_by_inferences() {
        let eval = MetricEvaluation {
            density_distance: 0.0,
            pits: vec![0.5; 10],
            inferences: 10,
            failures: 0,
            total_time: Duration::from_millis(100),
        };
        assert_eq!(eval.avg_time(), Duration::from_millis(10));
        let empty = MetricEvaluation {
            density_distance: f64::NAN,
            pits: vec![],
            inferences: 0,
            failures: 0,
            total_time: Duration::from_millis(100),
        };
        assert_eq!(empty.avg_time(), Duration::ZERO);
    }
}
