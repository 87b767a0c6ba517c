//! ARMA(p, q) estimation and one-step forecasting.
//!
//! The paper infers the expected true value `r̂_t` (eq. 2) with an ARMA
//! model fitted over the sliding window `S^H_{t-1}`:
//!
//! ```text
//! r̂_t = φ_0 + Σ_{j=1..p} φ_j r_{t−j} + Σ_{j=1..q} θ_j a_{t−j}
//! ```
//!
//! Estimation uses the Hannan–Rissanen two-stage procedure: a long
//! autoregression provides innovation estimates, after which the ARMA
//! coefficients are a single least-squares fit on lagged values and lagged
//! innovations. This keeps the per-window cost at `O(H · max(p,q))` — the
//! complexity the paper quotes for Algorithm 1 — instead of the iterative
//! likelihood optimisation a full MLE would need.

use tspdb_stats::error::StatsError;
use tspdb_stats::regression::{design_with_intercept, ols};

/// A fitted ARMA(p, q) model over one window, ready to produce the one-step
/// forecast `r̂_t` and the in-sample innovations `a_i` that feed GARCH.
#[derive(Debug, Clone)]
pub struct ArmaFit {
    /// Autoregressive order.
    pub p: usize,
    /// Moving-average order.
    pub q: usize,
    /// Constant term `φ_0`.
    pub phi0: f64,
    /// AR coefficients `φ_1 .. φ_p`.
    pub phi: Vec<f64>,
    /// MA coefficients `θ_1 .. θ_q`.
    pub theta: Vec<f64>,
    /// In-sample innovations `a_i`, aligned with the window (`a_i = 0` for
    /// the first `max(p, q)` warm-up positions).
    pub residuals: Vec<f64>,
    /// Innovation variance estimate `σ²_a` from the usable residuals.
    pub sigma2_a: f64,
    /// One-step-ahead forecast `r̂_t` for the value following the window.
    pub forecast: f64,
}

impl ArmaFit {
    /// Number of leading window positions without a defined innovation.
    pub(crate) fn warmup(&self) -> usize {
        self.p.max(self.q)
    }

    /// The innovations after the warm-up region — the `a_i` sequence handed
    /// to the GARCH stage (paper Algorithm 1, step 1).
    pub fn usable_residuals(&self) -> &[f64] {
        &self.residuals[self.warmup()..]
    }
}

/// Minimum window length required to fit ARMA(p, q): enough rows for the
/// regression plus the long-AR warm-up.
pub fn min_window(p: usize, q: usize) -> usize {
    let k = long_ar_order(p, q);
    // Need at least (p + q + 1) free parameters' worth of rows after losing
    // `k + q` observations to lags, with a small safety margin.
    k + q + (p + q + 1) * 2 + 4
}

/// Long autoregression order for the Hannan–Rissanen first stage.
fn long_ar_order(p: usize, q: usize) -> usize {
    (p.max(q) + 4).max(6)
}

/// Fits ARMA(p, q) on a window by Hannan–Rissanen.
///
/// * `p == 0 && q == 0` degenerates to the sample-mean model (`r̂ = mean`).
/// * `q == 0` is a direct autoregression (single OLS).
///
/// Errors with [`StatsError::InsufficientData`] when the window is shorter
/// than [`min_window`], and with [`StatsError::DegenerateInput`] when the
/// window is (numerically) constant.
pub fn fit_arma(window: &[f64], p: usize, q: usize) -> Result<ArmaFit, StatsError> {
    let n = window.len();
    if p == 0 && q == 0 {
        if n < 2 {
            return Err(StatsError::InsufficientData { needed: 2, got: n });
        }
        let mean = tspdb_stats::descriptive::mean(window);
        let residuals: Vec<f64> = window.iter().map(|r| r - mean).collect();
        let sigma2 = tspdb_stats::descriptive::sample_variance(&residuals).max(0.0);
        return Ok(ArmaFit {
            p,
            q,
            phi0: mean,
            phi: Vec::new(),
            theta: Vec::new(),
            residuals,
            sigma2_a: sigma2,
            forecast: mean,
        });
    }
    let needed = min_window(p, q);
    if n < needed {
        return Err(StatsError::InsufficientData { needed, got: n });
    }

    // Stage 1 (only needed when q > 0): long AR to estimate innovations.
    let innovations_est: Vec<f64> = if q > 0 {
        let k = long_ar_order(p, q);
        let ar = fit_autoregression(window, k)?;
        // Innovations defined for i >= k; zero-pad the warm-up.
        let mut a = vec![0.0; n];
        for i in k..n {
            let mut pred = ar.0;
            for (j, c) in ar.1.iter().enumerate() {
                pred += c * window[i - 1 - j];
            }
            a[i] = window[i] - pred;
        }
        a
    } else {
        Vec::new()
    };

    // Stage 2: regress r_i on intercept, its own lags, and lagged
    // innovation estimates. Rows start where all lags are defined.
    let start = if q > 0 { long_ar_order(p, q) + q } else { p };
    let rows = n - start;
    let y: Vec<f64> = window[start..].to_vec();
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(p + q);
    for j in 1..=p {
        cols.push((start..n).map(|i| window[i - j]).collect());
    }
    for j in 1..=q {
        cols.push((start..n).map(|i| innovations_est[i - j]).collect());
    }
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let design = design_with_intercept(&col_refs);
    if rows <= p + q + 1 {
        return Err(StatsError::InsufficientData {
            needed: p + q + 2,
            got: rows,
        });
    }
    let fit = ols(&design, &y)?;

    let phi0 = fit.beta[0];
    let phi: Vec<f64> = fit.beta[1..1 + p].to_vec();
    let theta: Vec<f64> = fit.beta[1 + p..1 + p + q].to_vec();

    // Recursive in-sample innovations under the fitted model, defined from
    // max(p, q) onward with zero initial innovations.
    let warm = p.max(q);
    let mut residuals = vec![0.0; n];
    for i in warm..n {
        let mut pred = phi0;
        for (j, c) in phi.iter().enumerate() {
            pred += c * window[i - 1 - j];
        }
        for (j, c) in theta.iter().enumerate() {
            pred += c * residuals[i - 1 - j];
        }
        residuals[i] = window[i] - pred;
    }
    let usable = &residuals[warm..];
    let sigma2_a = tspdb_stats::descriptive::sample_variance(usable).max(0.0);

    // One-step forecast for index n (the paper's r̂_t with t = window end).
    let mut forecast = phi0;
    for (j, c) in phi.iter().enumerate() {
        forecast += c * window[n - 1 - j];
    }
    for (j, c) in theta.iter().enumerate() {
        forecast += c * residuals[n - 1 - j];
    }
    if !forecast.is_finite() {
        return Err(StatsError::DegenerateInput(
            "ARMA forecast is non-finite".into(),
        ));
    }

    Ok(ArmaFit {
        p,
        q,
        phi0,
        phi,
        theta,
        residuals,
        sigma2_a,
        forecast,
    })
}

/// Direct OLS autoregression of order `k` (intercept + k lags); returns
/// `(intercept, coefficients)`.
fn fit_autoregression(window: &[f64], k: usize) -> Result<(f64, Vec<f64>), StatsError> {
    let n = window.len();
    if n < k + k + 2 {
        return Err(StatsError::InsufficientData {
            needed: 2 * k + 2,
            got: n,
        });
    }
    let y: Vec<f64> = window[k..].to_vec();
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(k);
    for j in 1..=k {
        cols.push((k..n).map(|i| window[i - j]).collect());
    }
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let design = design_with_intercept(&col_refs);
    let fit = ols(&design, &y)?;
    Ok((fit.beta[0], fit.beta[1..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_timeseries::generate::{ar1_series, ArmaGarchGenerator};

    #[test]
    fn mean_model_for_zero_orders() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let fit = fit_arma(&w, 0, 0).unwrap();
        assert!((fit.forecast - 2.5).abs() < 1e-12);
        assert_eq!(fit.residuals.len(), 4);
        assert!((fit.residuals[0] + 1.5).abs() < 1e-12);
    }

    #[test]
    fn recovers_ar1_coefficient() {
        let s = ar1_series(3, 0.7, 1.0, 3000);
        let fit = fit_arma(s.values(), 1, 0).unwrap();
        assert!(
            (fit.phi[0] - 0.7).abs() < 0.05,
            "AR coefficient {} ≉ 0.7",
            fit.phi[0]
        );
        assert!(fit.phi0.abs() < 0.1, "intercept {}", fit.phi0);
        assert!((fit.sigma2_a - 1.0).abs() < 0.1, "σ²_a {}", fit.sigma2_a);
    }

    #[test]
    fn recovers_arma11_coefficients() {
        // Homoskedastic ARMA(1,1): GARCH degenerate (α1 = β1 = 0).
        let g = ArmaGarchGenerator {
            seed: 11,
            c: 1.0,
            phi: 0.6,
            theta: 0.4,
            alpha0: 1.0,
            alpha1: 0.0,
            beta1: 0.0,
        };
        let s = g.generate(5000);
        let fit = fit_arma(s.values(), 1, 1).unwrap();
        assert!((fit.phi[0] - 0.6).abs() < 0.08, "φ {}", fit.phi[0]);
        assert!((fit.theta[0] - 0.4).abs() < 0.10, "θ {}", fit.theta[0]);
    }

    #[test]
    fn forecast_tracks_deterministic_trend() {
        // A noiseless AR(1)-with-drift sequence should be forecast almost
        // exactly.
        let mut w = vec![0.0f64; 60];
        for i in 1..60 {
            w[i] = 2.0 + 0.9 * w[i - 1];
        }
        let fit = fit_arma(&w, 1, 0).unwrap();
        let expected = 2.0 + 0.9 * w[59];
        assert!(
            (fit.forecast - expected).abs() < 1e-6,
            "forecast {} vs {expected}",
            fit.forecast
        );
    }

    #[test]
    fn residuals_have_near_zero_mean() {
        let s = ar1_series(17, 0.5, 2.0, 800);
        let fit = fit_arma(s.values(), 2, 0).unwrap();
        let m = tspdb_stats::descriptive::mean(fit.usable_residuals());
        assert!(m.abs() < 0.05, "residual mean {m}");
    }

    #[test]
    fn insufficient_window_is_rejected() {
        let w = [1.0, 2.0, 3.0];
        assert!(matches!(
            fit_arma(&w, 2, 1),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn constant_window_degrades_gracefully() {
        // Collinear design → ridge fallback; forecast should equal the
        // constant value.
        let w = vec![5.0; 80];
        let fit = fit_arma(&w, 1, 0).unwrap();
        assert!(
            (fit.forecast - 5.0).abs() < 1e-3,
            "forecast {}",
            fit.forecast
        );
    }

    #[test]
    fn warmup_positions_are_zeroed() {
        let s = ar1_series(23, 0.4, 1.0, 200);
        let fit = fit_arma(s.values(), 3, 2).unwrap();
        assert_eq!(fit.warmup(), 3);
        assert_eq!(&fit.residuals[..3], &[0.0, 0.0, 0.0]);
        assert_eq!(fit.usable_residuals().len(), 197);
    }

    #[test]
    fn higher_order_fits_do_not_explode() {
        let s = ar1_series(31, 0.6, 1.0, 400);
        for p in [2, 4, 6, 8] {
            let fit = fit_arma(s.values(), p, 0).unwrap();
            assert!(fit.forecast.is_finite());
            assert!(fit.sigma2_a.is_finite() && fit.sigma2_a > 0.0);
        }
    }
}
