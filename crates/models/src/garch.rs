//! GARCH(m, s) conditional-variance estimation and forecasting.
//!
//! The paper (Section IV-A) models time-varying volatility with
//!
//! ```text
//! a_i = σ_i ε_i,    σ²_i = α_0 + Σ_{j=1..m} α_j a²_{i−j} + Σ_{j=1..s} β_j σ²_{i−j}
//! ```
//!
//! subject to `α_0 > 0`, `α_j ≥ 0`, `β_j ≥ 0` and `Σ(α_j + β_j) < 1`, and
//! restricts itself to GARCH(1,1) in practice ("for a higher order GARCH
//! model specifying the model order is a difficult task"). We follow suit:
//! estimation targets GARCH(1,1) via Gaussian quasi-maximum likelihood over
//! an unconstrained reparametrisation (so the Nelder–Mead iterates can never
//! leave the admissible region), while forecasting (eq. 6) supports the
//! general (m, s) recursion.

use tspdb_stats::descriptive::sample_variance;
use tspdb_stats::error::StatsError;
use tspdb_stats::optimize::NelderMead;

/// A fitted GARCH(1,1) model.
#[derive(Debug, Clone)]
pub struct Garch11Fit {
    /// Constant `α_0 > 0`.
    pub alpha0: f64,
    /// ARCH coefficient `α_1 ≥ 0`.
    pub alpha1: f64,
    /// GARCH coefficient `β_1 ≥ 0` with `α_1 + β_1 < 1`.
    pub beta1: f64,
    /// In-sample conditional variances `σ²_i`, aligned with the residuals
    /// used for fitting.
    pub sigma2: Vec<f64>,
    /// Negative Gaussian quasi-log-likelihood at the optimum (lower is a
    /// better fit).
    pub nll: f64,
    /// Whether the optimizer met its convergence tolerances.
    pub converged: bool,
}

impl Garch11Fit {
    /// Volatility persistence `α_1 + β_1`.
    pub(crate) fn persistence(&self) -> f64 {
        self.alpha1 + self.beta1
    }

    /// Unconditional variance `α_0 / (1 − α_1 − β_1)`.
    pub(crate) fn unconditional_variance(&self) -> f64 {
        self.alpha0 / (1.0 - self.persistence())
    }

    /// One-step-ahead variance forecast `σ̂²_t` (paper eq. 6) given the most
    /// recent residual and the most recent conditional variance.
    pub(crate) fn forecast_next(&self, last_a: f64, last_sigma2: f64) -> f64 {
        self.alpha0 + self.alpha1 * last_a * last_a + self.beta1 * last_sigma2
    }

    /// One-step forecast using the fit's own in-sample tail state.
    pub fn forecast_from_fit(&self, residuals: &[f64]) -> f64 {
        let last_a = residuals.last().copied().unwrap_or(0.0);
        let last_s2 = self
            .sigma2
            .last()
            .copied()
            .unwrap_or_else(|| self.unconditional_variance());
        self.forecast_next(last_a, last_s2)
    }
}

/// Transforms the unconstrained optimizer vector into admissible
/// `(α0, α1, β1)`:
///
/// * `α0 = exp(x0)` ensures positivity;
/// * persistence `s = sigmoid(x1) · 0.9999` keeps `α1 + β1 < 1`;
/// * the share `u = sigmoid(x2)` splits persistence into `α1 = s·u`,
///   `β1 = s·(1−u)`.
fn transform(x: &[f64]) -> (f64, f64, f64) {
    let sigmoid = |v: f64| 1.0 / (1.0 + (-v).exp());
    let alpha0 = x[0].exp();
    let s = sigmoid(x[1]) * 0.9999;
    let u = sigmoid(x[2]);
    (alpha0, s * u, s * (1.0 - u))
}

/// Gaussian quasi-negative-log-likelihood of GARCH(1,1) on `residuals`,
/// initialised at the sample variance.
fn garch11_nll(params: (f64, f64, f64), residuals: &[f64], init_var: f64) -> (f64, Vec<f64>) {
    let (a0, a1, b1) = params;
    let n = residuals.len();
    let mut sigma2 = Vec::with_capacity(n);
    let mut s2 = init_var.max(1e-12);
    let mut nll = 0.0;
    for (i, &a) in residuals.iter().enumerate() {
        if i > 0 {
            let prev = residuals[i - 1];
            s2 = a0 + a1 * prev * prev + b1 * s2;
        }
        let s2c = s2.max(1e-12);
        nll += 0.5 * (s2c.ln() + a * a / s2c);
        sigma2.push(s2c);
    }
    (nll, sigma2)
}

/// Fits GARCH(1,1) to a residual series by quasi-MLE.
///
/// Requires at least 20 residuals (below that the likelihood surface is too
/// flat to say anything about persistence). A degenerate (all-zero) residual
/// series is rejected.
pub fn fit_garch11(residuals: &[f64]) -> Result<Garch11Fit, StatsError> {
    let n = residuals.len();
    if n < 20 {
        return Err(StatsError::InsufficientData { needed: 20, got: n });
    }
    let var = sample_variance(residuals);
    if !(var > 0.0) {
        return Err(StatsError::DegenerateInput(
            "GARCH: residuals have zero variance".into(),
        ));
    }

    // Start at persistence 0.9 split 20/80 between ARCH and GARCH terms —
    // the classic initial guess for (1,1) fits on sensor/financial data.
    let x0 = [
        (var * 0.1).max(1e-12).ln(),
        (0.9f64 / 0.1f64).ln(), // sigmoid^{-1}(0.9)
        (0.2f64 / 0.8f64).ln(), // sigmoid^{-1}(0.2)
    ];
    let nm = NelderMead {
        max_iter: 300,
        f_tol: 1e-9,
        x_tol: 1e-7,
        initial_step: 0.25,
    };
    let res = nm.minimize(|x| garch11_nll(transform(x), residuals, var).0, &x0);
    let (alpha0, alpha1, beta1) = transform(&res.x);
    let (nll, sigma2) = garch11_nll((alpha0, alpha1, beta1), residuals, var);
    Ok(Garch11Fit {
        alpha0,
        alpha1,
        beta1,
        sigma2,
        nll,
        converged: res.converged,
    })
}

/// General GARCH(m, s) one-step variance forecast (paper eq. 6): given
/// coefficient vectors and the trailing residuals / conditional variances
/// (most recent last), computes
/// `σ̂²_t = α_0 + Σ α_j a²_{t−j} + Σ β_j σ²_{t−j}`.
#[cfg(test)]
pub(crate) fn garch_forecast(
    alpha0: f64,
    alpha: &[f64],
    beta: &[f64],
    recent_residuals: &[f64],
    recent_sigma2: &[f64],
) -> Result<f64, StatsError> {
    if recent_residuals.len() < alpha.len() {
        return Err(StatsError::InsufficientData {
            needed: alpha.len(),
            got: recent_residuals.len(),
        });
    }
    if recent_sigma2.len() < beta.len() {
        return Err(StatsError::InsufficientData {
            needed: beta.len(),
            got: recent_sigma2.len(),
        });
    }
    let mut s2 = alpha0;
    let nr = recent_residuals.len();
    for (j, &aj) in alpha.iter().enumerate() {
        let a = recent_residuals[nr - 1 - j];
        s2 += aj * a * a;
    }
    let ns = recent_sigma2.len();
    for (j, &bj) in beta.iter().enumerate() {
        s2 += bj * recent_sigma2[ns - 1 - j];
    }
    Ok(s2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_timeseries::generate::ArmaGarchGenerator;

    /// Pure GARCH(1,1) innovations (no ARMA structure).
    fn garch_residuals(n: usize, seed: u64) -> Vec<f64> {
        let g = ArmaGarchGenerator {
            seed,
            c: 0.0,
            phi: 0.0,
            theta: 0.0,
            alpha0: 0.05,
            alpha1: 0.15,
            beta1: 0.8,
        };
        g.generate(n).values().to_vec()
    }

    #[test]
    fn recovers_garch11_parameters_on_long_sample() {
        let a = garch_residuals(8000, 42);
        let fit = fit_garch11(&a).unwrap();
        assert!(
            (fit.alpha1 - 0.15).abs() < 0.05,
            "α1 = {} ≉ 0.15",
            fit.alpha1
        );
        assert!((fit.beta1 - 0.8).abs() < 0.08, "β1 = {} ≉ 0.8", fit.beta1);
        assert!(
            (fit.unconditional_variance() - 1.0).abs() < 0.25,
            "unconditional var {}",
            fit.unconditional_variance()
        );
    }

    #[test]
    fn constraints_always_hold() {
        for seed in 0..5 {
            let a = garch_residuals(300, seed);
            let fit = fit_garch11(&a).unwrap();
            assert!(fit.alpha0 > 0.0);
            assert!(fit.alpha1 >= 0.0);
            assert!(fit.beta1 >= 0.0);
            assert!(fit.persistence() < 1.0);
        }
    }

    #[test]
    fn fitted_nll_beats_true_parameters_or_ties() {
        // The QMLE optimum on this sample cannot be worse than the
        // generating parameters evaluated on the same sample.
        let a = garch_residuals(2000, 7);
        let var = sample_variance(&a);
        let fit = fit_garch11(&a).unwrap();
        let (true_nll, _) = garch11_nll((0.05, 0.15, 0.8), &a, var);
        assert!(
            fit.nll <= true_nll + 1e-6,
            "fitted nll {} > true nll {true_nll}",
            fit.nll
        );
    }

    #[test]
    fn volatility_tracks_bursts() {
        // After a large shock, the fitted conditional variance must rise.
        let mut a = garch_residuals(500, 3);
        a[250] = 8.0; // inject a shock
        let fit = fit_garch11(&a).unwrap();
        assert!(
            fit.sigma2[251] > fit.sigma2[249] * 1.5,
            "σ² did not react to the shock: {} vs {}",
            fit.sigma2[251],
            fit.sigma2[249]
        );
    }

    #[test]
    fn forecast_next_applies_recursion() {
        let fit = Garch11Fit {
            alpha0: 0.1,
            alpha1: 0.2,
            beta1: 0.5,
            sigma2: vec![1.0],
            nll: 0.0,
            converged: true,
        };
        let f = fit.forecast_next(2.0, 1.0);
        assert!((f - (0.1 + 0.2 * 4.0 + 0.5 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn general_forecast_matches_garch11_special_case() {
        let fit = Garch11Fit {
            alpha0: 0.1,
            alpha1: 0.2,
            beta1: 0.5,
            sigma2: vec![],
            nll: 0.0,
            converged: true,
        };
        let direct = fit.forecast_next(1.5, 0.8);
        let general = garch_forecast(0.1, &[0.2], &[0.5], &[9.0, 1.5], &[7.0, 0.8]).unwrap();
        assert!((direct - general).abs() < 1e-12);
    }

    #[test]
    fn general_forecast_validates_history_length() {
        assert!(garch_forecast(0.1, &[0.2, 0.1], &[], &[1.0], &[]).is_err());
        assert!(garch_forecast(0.1, &[], &[0.5], &[], &[]).is_err());
    }

    #[test]
    fn short_series_rejected() {
        assert!(matches!(
            fit_garch11(&[1.0; 5]),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn constant_residuals_rejected() {
        assert!(matches!(
            fit_garch11(&[0.0; 100]),
            Err(StatsError::DegenerateInput(_))
        ));
    }

    #[test]
    fn homoskedastic_input_yields_low_persistence_arch_term() {
        // On iid residuals the ARCH coefficient should be small.
        let g = ArmaGarchGenerator {
            seed: 9,
            c: 0.0,
            phi: 0.0,
            theta: 0.0,
            alpha0: 1.0,
            alpha1: 0.0,
            beta1: 0.0,
        };
        let a = g.generate(4000).values().to_vec();
        let fit = fit_garch11(&a).unwrap();
        assert!(
            fit.alpha1 < 0.06,
            "spurious ARCH effect: α1 = {}",
            fit.alpha1
        );
    }
}
