//! Dynamic density metrics (paper Sections III–IV).
//!
//! A dynamic density metric answers Definition 1: given a sliding window
//! `S^H_{t-1}`, infer the probability density `p_t(R_t)` of the next raw
//! value. Four metrics are provided:
//!
//! | metric | `r̂_t` (mean) | dispersion | density |
//! |---|---|---|---|
//! | `UniformThresholding` | ARMA | user threshold `u` | uniform |
//! | `VariableThresholding` | ARMA | window sample variance | Gaussian |
//! | [`ArmaGarch`] | ARMA | GARCH(1,1) forecast | Gaussian |
//! | `KalmanGarch` | Kalman filter (EM) | GARCH(1,1) forecast | Gaussian |
//!
//! C-GARCH (Section V) wraps ARMA-GARCH with online cleaning and lives in
//! [`crate::cgarch`].

use crate::error::CoreError;
use tspdb_models::arma::{fit_arma, min_window};
use tspdb_models::garch::fit_garch11;
use tspdb_models::kalman::{fit_em, EmConfig};
use tspdb_stats::{Density, Normal, Uniform};

/// One density inference: the paper's `p_t(R_t)` together with the derived
/// quantities Algorithm 1 returns (`r̂_t`, `σ̂²_t`, κ-scaled bounds).
#[derive(Debug, Clone, Copy)]
pub struct Inference {
    /// The inferred density `p_t(R_t)`.
    pub density: Density,
    /// Expected true value `r̂_t` (Definition 3).
    pub expected: f64,
    /// Lower bound `lb = r̂_t − κ·σ̂_t` (for uniform densities, the range
    /// lower edge).
    pub lower: f64,
    /// Upper bound `ub = r̂_t + κ·σ̂_t`.
    pub upper: f64,
}

impl Inference {
    /// Whether an observation falls inside the κ-scaled bounds — the
    /// C-GARCH erroneous-value trigger.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }
}

/// A dynamic density metric (paper Definition 1).
///
/// `infer` takes the window `S^H_{t-1}` (oldest value first) and produces
/// the density of the *next* value `r_t`. Implementations re-estimate their
/// models on every call, exactly like the paper's sliding evaluation;
/// metrics needing cross-window state take `&mut self`.
pub trait DynamicDensityMetric {
    /// Short identifier used by `USING METRIC …` and reports.
    fn name(&self) -> &'static str;

    /// Minimum window length this metric can work with.
    fn min_window(&self) -> usize;

    /// Infers `p_t(R_t)` from the window.
    fn infer(&mut self, window: &[f64]) -> Result<Inference, CoreError>;
}

/// Shared configuration for the metric family.
#[derive(Debug, Clone, Copy)]
pub struct MetricConfig {
    /// ARMA AR order `p`.
    pub p: usize,
    /// ARMA MA order `q`.
    pub q: usize,
    /// Bound scaling factor κ (paper Algorithm 1; κ = 3 ⇒ ≈ 0.9973 mass).
    pub kappa: f64,
    /// Uniform-thresholding half-width `u` (ignored by other metrics).
    pub threshold_u: f64,
    /// EM settings for the Kalman filter.
    pub em: EmConfig,
}

impl Default for MetricConfig {
    fn default() -> Self {
        MetricConfig {
            p: 2,
            q: 0,
            kappa: 3.0,
            threshold_u: 1.0,
            // Run EM to tight convergence: the paper attributes
            // Kalman-GARCH's cost profile (Fig. 11) to the slow iterative
            // EM, so the metric should not cut it short.
            em: EmConfig {
                max_iter: 100,
                tol: 1e-9,
            },
        }
    }
}

impl MetricConfig {
    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.kappa < 0.0 || !self.kappa.is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "kappa must be a non-negative finite number, got {}",
                self.kappa
            )));
        }
        if !(self.threshold_u > 0.0) {
            return Err(CoreError::InvalidConfig(format!(
                "uniform threshold u must be positive, got {}",
                self.threshold_u
            )));
        }
        Ok(())
    }
}

/// Floor applied to inferred variances: windows can be numerically constant
/// (a flat-lined sensor), and a zero-variance Gaussian is not a usable
/// density for PIT or Ω integration.
const VAR_FLOOR: f64 = 1e-12;

/// Uniform thresholding metric (Section III): ARMA expected value with a
/// user-supplied uncertainty half-width, following Cheng et al.'s
/// fixed-range model.
#[derive(Debug, Clone)]
pub(crate) struct UniformThresholding {
    config: MetricConfig,
}

impl UniformThresholding {
    /// Creates the metric.
    pub(crate) fn new(config: MetricConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(UniformThresholding { config })
    }
}

impl DynamicDensityMetric for UniformThresholding {
    fn name(&self) -> &'static str {
        "ut"
    }

    fn min_window(&self) -> usize {
        min_window(self.config.p, self.config.q)
    }

    fn infer(&mut self, window: &[f64]) -> Result<Inference, CoreError> {
        let fit = fit_arma(window, self.config.p, self.config.q)?;
        if !fit.forecast.is_finite() {
            return Err(CoreError::Numerics(
                tspdb_stats::StatsError::DegenerateInput("non-finite forecast".into()),
            ));
        }
        let u = self.config.threshold_u;
        let (lo, hi) = (fit.forecast - u, fit.forecast + u);
        Ok(Inference {
            density: Density::Uniform(Uniform::new(lo, hi)),
            expected: fit.forecast,
            lower: lo,
            upper: hi,
        })
    }
}

/// Variable thresholding metric (Section III): ARMA expected value with the
/// window's sample variance as the Gaussian dispersion (eq. 3).
#[derive(Debug, Clone)]
pub(crate) struct VariableThresholding {
    config: MetricConfig,
}

impl VariableThresholding {
    /// Creates the metric.
    pub(crate) fn new(config: MetricConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(VariableThresholding { config })
    }
}

impl DynamicDensityMetric for VariableThresholding {
    fn name(&self) -> &'static str {
        "vt"
    }

    fn min_window(&self) -> usize {
        min_window(self.config.p, self.config.q)
    }

    fn infer(&mut self, window: &[f64]) -> Result<Inference, CoreError> {
        let fit = fit_arma(window, self.config.p, self.config.q)?;
        let s2 = tspdb_stats::descriptive::sample_variance(window).max(VAR_FLOOR);
        gaussian_inference(fit.forecast, s2, self.config.kappa)
    }
}

/// The ARMA-GARCH metric (Section IV, Algorithm 1): ARMA infers `r̂_t`,
/// GARCH(1,1) on the ARMA innovations infers `σ̂²_t`.
#[derive(Debug, Clone)]
pub struct ArmaGarch {
    config: MetricConfig,
}

impl ArmaGarch {
    /// Creates the metric.
    pub fn new(config: MetricConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(ArmaGarch { config })
    }
}

impl DynamicDensityMetric for ArmaGarch {
    fn name(&self) -> &'static str {
        "arma_garch"
    }

    fn min_window(&self) -> usize {
        // GARCH needs ≥ 20 usable residuals on top of the ARMA warm-up.
        min_window(self.config.p, self.config.q).max(20 + self.config.p.max(self.config.q))
    }

    fn infer(&mut self, window: &[f64]) -> Result<Inference, CoreError> {
        // Step 1: estimate ARMA(p, q) and obtain the innovations a_i.
        let fit = fit_arma(window, self.config.p, self.config.q)?;
        let residuals = fit.usable_residuals();
        // Step 2-3: estimate GARCH(1,1) on the a_i and infer σ̂²_t; a
        // degenerate GARCH fit (flat window) falls back to the innovation
        // variance so the metric keeps producing densities.
        let sigma2 = match fit_garch11(residuals) {
            Ok(g) => g.forecast_from_fit(residuals),
            Err(_) => fit.sigma2_a,
        }
        .max(VAR_FLOOR);
        gaussian_inference(fit.forecast, sigma2, self.config.kappa)
    }
}

/// The Kalman-GARCH metric (Section IV): the Kalman filter (EM-estimated)
/// infers `r̂_t`, GARCH(1,1) on the filter innovations infers `σ̂²_t`.
#[derive(Debug, Clone)]
pub(crate) struct KalmanGarch {
    config: MetricConfig,
}

impl KalmanGarch {
    /// Creates the metric.
    pub(crate) fn new(config: MetricConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(KalmanGarch { config })
    }
}

impl DynamicDensityMetric for KalmanGarch {
    fn name(&self) -> &'static str {
        "kalman_garch"
    }

    fn min_window(&self) -> usize {
        24
    }

    fn infer(&mut self, window: &[f64]) -> Result<Inference, CoreError> {
        let fit = fit_em(window, &self.config.em)?;
        // Skip the first innovations: the filter needs a few steps to lock
        // onto the state before its prediction errors are meaningful.
        let skip = (window.len() / 10).clamp(1, 5);
        let innovations = &fit.innovations()[skip..];
        let sigma2 = match fit_garch11(innovations) {
            Ok(g) => g.forecast_from_fit(innovations),
            Err(_) => tspdb_stats::descriptive::sample_variance(innovations),
        }
        .max(VAR_FLOOR);
        gaussian_inference(fit.forecast_next(), sigma2, self.config.kappa)
    }
}

/// Builds the Gaussian inference with κ-scaled bounds (Algorithm 1, step 4).
fn gaussian_inference(r_hat: f64, sigma2: f64, kappa: f64) -> Result<Inference, CoreError> {
    if !r_hat.is_finite() || !sigma2.is_finite() {
        return Err(CoreError::Numerics(
            tspdb_stats::StatsError::DegenerateInput("non-finite inference".into()),
        ));
    }
    let sigma = sigma2.sqrt();
    Ok(Inference {
        density: Density::Gaussian(Normal::from_mean_var(r_hat, sigma2)),
        expected: r_hat,
        lower: r_hat - kappa * sigma,
        upper: r_hat + kappa * sigma,
    })
}

/// Identifier of a dynamic density metric, as used by `USING METRIC …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Uniform thresholding.
    UniformThresholding,
    /// Variable thresholding.
    VariableThresholding,
    /// ARMA-GARCH (the paper's main proposal).
    ArmaGarch,
    /// Kalman-GARCH.
    KalmanGarch,
    /// C-GARCH (ARMA-GARCH with online cleaning).
    CGarch,
}

impl MetricKind {
    /// Parses a metric name (case-insensitive; hyphens and underscores are
    /// interchangeable).
    pub(crate) fn parse(name: &str) -> Result<Self, CoreError> {
        match name.to_ascii_lowercase().replace('-', "_").as_str() {
            "ut" | "uniform" | "uniform_thresholding" => Ok(MetricKind::UniformThresholding),
            "vt" | "variable" | "variable_thresholding" => Ok(MetricKind::VariableThresholding),
            "arma_garch" | "garch" => Ok(MetricKind::ArmaGarch),
            "kalman_garch" | "kalman" => Ok(MetricKind::KalmanGarch),
            "cgarch" | "c_garch" | "clean_garch" => Ok(MetricKind::CGarch),
            other => Err(CoreError::UnknownMetric(other.to_string())),
        }
    }

    /// All kinds, in the order the paper's figures list them.
    pub fn all() -> [MetricKind; 5] {
        [
            MetricKind::UniformThresholding,
            MetricKind::VariableThresholding,
            MetricKind::ArmaGarch,
            MetricKind::KalmanGarch,
            MetricKind::CGarch,
        ]
    }

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            MetricKind::UniformThresholding => "UT",
            MetricKind::VariableThresholding => "VT",
            MetricKind::ArmaGarch => "ARMA-GARCH",
            MetricKind::KalmanGarch => "Kalman-GARCH",
            MetricKind::CGarch => "C-GARCH",
        }
    }
}

/// Instantiates a metric by kind. C-GARCH is stateful and constructed via
/// [`crate::cgarch::CGarch`]; requesting it here wraps it with default
/// cleaning parameters.
pub fn make_metric(
    kind: MetricKind,
    config: MetricConfig,
) -> Result<Box<dyn DynamicDensityMetric + Send>, CoreError> {
    Ok(match kind {
        MetricKind::UniformThresholding => Box::new(UniformThresholding::new(config)?),
        MetricKind::VariableThresholding => Box::new(VariableThresholding::new(config)?),
        MetricKind::ArmaGarch => Box::new(ArmaGarch::new(config)?),
        MetricKind::KalmanGarch => Box::new(KalmanGarch::new(config)?),
        MetricKind::CGarch => Box::new(crate::cgarch::CGarch::new(
            crate::cgarch::CGarchConfig::default(),
            config,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_timeseries::generate::{ArmaGarchGenerator, TemperatureGenerator};

    fn garch_window(n: usize) -> Vec<f64> {
        ArmaGarchGenerator::default().generate(n).values().to_vec()
    }

    #[test]
    fn ut_produces_uniform_band_around_forecast() {
        let mut m = UniformThresholding::new(MetricConfig {
            threshold_u: 2.0,
            ..MetricConfig::default()
        })
        .unwrap();
        let w = garch_window(80);
        let inf = m.infer(&w).unwrap();
        assert!((inf.upper - inf.lower - 4.0).abs() < 1e-12);
        assert!((inf.expected - (inf.lower + 2.0)).abs() < 1e-9);
        assert!(matches!(inf.density, Density::Uniform(_)));
        // Uniform density integrates to 1 over the band.
        assert!((inf.density.prob_in(inf.lower, inf.upper) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vt_variance_matches_window_sample_variance() {
        let mut m = VariableThresholding::new(MetricConfig::default()).unwrap();
        let w = garch_window(100);
        let inf = m.infer(&w).unwrap();
        let s2 = tspdb_stats::descriptive::sample_variance(&w);
        assert!((inf.density.var() - s2).abs() < 1e-9);
        assert!(matches!(inf.density, Density::Gaussian(_)));
    }

    #[test]
    fn arma_garch_bounds_scale_with_kappa() {
        let w = garch_window(150);
        let mut m2 = ArmaGarch::new(MetricConfig {
            kappa: 2.0,
            ..MetricConfig::default()
        })
        .unwrap();
        let mut m3 = ArmaGarch::new(MetricConfig {
            kappa: 3.0,
            ..MetricConfig::default()
        })
        .unwrap();
        let i2 = m2.infer(&w).unwrap();
        let i3 = m3.infer(&w).unwrap();
        let half2 = (i2.upper - i2.lower) / 2.0;
        let half3 = (i3.upper - i3.lower) / 2.0;
        assert!((half3 / half2 - 1.5).abs() < 1e-9, "κ scaling broken");
        assert!((i2.expected - i3.expected).abs() < 1e-12);
    }

    #[test]
    fn arma_garch_tracks_volatility_regimes() {
        // Windows ending in the calmest vs. the most volatile part of the
        // synthetic temperature day must produce very different σ̂. The
        // regimes are located from the data itself (rolling dispersion)
        // rather than hard-coded offsets.
        let s = TemperatureGenerator::default().generate(1440); // 2 days
        let h = 120;
        // Locate the regimes with a short rolling window, then take the
        // H-window *ending* at each extreme — the GARCH forecast reflects
        // end-of-window conditional state.
        let short = 20;
        let rolling = tspdb_stats::descriptive::rolling_std(s.values(), short);
        let end_of = |i: usize| (i + short).clamp(h, s.len());
        let (max_i, _) = rolling
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let (min_i, _) = rolling
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let mut m = ArmaGarch::new(MetricConfig::default()).unwrap();
        let vol_end = end_of(max_i);
        let calm_end = end_of(min_i);
        let vol_sigma = m
            .infer(&s.values()[vol_end - h..vol_end])
            .unwrap()
            .density
            .std();
        let calm_sigma = m
            .infer(&s.values()[calm_end - h..calm_end])
            .unwrap()
            .density
            .std();
        assert!(
            vol_sigma > calm_sigma * 1.5,
            "volatile σ {vol_sigma} not ≫ calm σ {calm_sigma}"
        );
    }

    #[test]
    fn kalman_garch_infers_plausible_density() {
        let w = garch_window(120);
        let mut m = KalmanGarch::new(MetricConfig::default()).unwrap();
        let inf = m.infer(&w).unwrap();
        assert!(inf.density.var() > 0.0);
        assert!(inf.contains(inf.expected));
        // The forecast should be in the vicinity of the last observations.
        let recent = tspdb_stats::descriptive::mean(&w[110..]);
        assert!((inf.expected - recent).abs() < 5.0);
    }

    #[test]
    fn constant_window_still_yields_density() {
        let w = vec![7.0; 100];
        let mut m = ArmaGarch::new(MetricConfig::default()).unwrap();
        let inf = m.infer(&w).unwrap();
        assert!((inf.expected - 7.0).abs() < 1e-3);
        assert!(inf.density.var() >= VAR_FLOOR);
    }

    #[test]
    fn short_window_is_reported() {
        let mut m = ArmaGarch::new(MetricConfig::default()).unwrap();
        assert!(matches!(
            m.infer(&[1.0, 2.0, 3.0]),
            Err(CoreError::WindowTooShort { .. })
        ));
    }

    #[test]
    fn metric_kind_parsing() {
        assert_eq!(
            MetricKind::parse("ARMA-GARCH").unwrap(),
            MetricKind::ArmaGarch
        );
        assert_eq!(
            MetricKind::parse("ut").unwrap(),
            MetricKind::UniformThresholding
        );
        assert_eq!(
            MetricKind::parse("Kalman").unwrap(),
            MetricKind::KalmanGarch
        );
        assert_eq!(MetricKind::parse("cgarch").unwrap(), MetricKind::CGarch);
        assert!(matches!(
            MetricKind::parse("nope"),
            Err(CoreError::UnknownMetric(_))
        ));
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in MetricKind::all() {
            let m = make_metric(kind, MetricConfig::default()).unwrap();
            assert!(!m.name().is_empty());
            assert!(m.min_window() > 0);
        }
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(MetricConfig {
            kappa: -1.0,
            ..MetricConfig::default()
        }
        .validate()
        .is_err());
        assert!(MetricConfig {
            threshold_u: 0.0,
            ..MetricConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn kappa_three_bounds_capture_nearly_all_mass() {
        let w = garch_window(150);
        let mut m = ArmaGarch::new(MetricConfig::default()).unwrap();
        let inf = m.infer(&w).unwrap();
        let mass = inf.density.prob_in(inf.lower, inf.upper);
        assert!((mass - 0.9973).abs() < 1e-3, "κ=3 mass {mass}");
    }
}
