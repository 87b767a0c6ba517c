//! Scalar linear-Gaussian state-space model: Kalman filter, RTS smoother and
//! EM parameter estimation.
//!
//! The paper's Kalman-GARCH metric infers the expected true value with the
//! state-space pair (eq. 7-8):
//!
//! ```text
//! state:       r̂_i = c_1 · r̂_{i−1} + e_{i−1},   e ~ N(0, σ²_e)
//! observation: r_i = c_2 · r̂_i + η_i,            η ~ N(0, σ²_η)
//! ```
//!
//! We fix `c_2 = 1` (the pair `(c_2, σ²_e)` is not jointly identifiable
//! from a single series) and estimate `(c_1, σ²_e, σ²_η)` by
//! expectation-maximisation over the smoothed state moments — the iterative
//! EM whose "slow convergence" the paper cites as the reason Kalman-GARCH
//! trails ARMA-GARCH in Fig. 11. That cost profile is intentional here.

use tspdb_stats::error::StatsError;

/// Parameters of the scalar state-space model (with `c_2 = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KalmanParams {
    /// State transition coefficient `c_1`.
    pub c1: f64,
    /// State noise variance `σ²_e`.
    pub q: f64,
    /// Observation noise variance `σ²_η`.
    pub r: f64,
    /// Initial state mean.
    pub mu0: f64,
    /// Initial state variance.
    pub p0: f64,
}

/// Output of one Kalman filtering pass.
#[derive(Debug, Clone)]
pub struct FilterResult {
    /// Filtered state means `x_{i|i}`.
    pub filtered_mean: Vec<f64>,
    /// Filtered state variances `P_{i|i}`.
    pub filtered_var: Vec<f64>,
    /// One-step predicted state means `x_{i|i−1}`.
    pub predicted_mean: Vec<f64>,
    /// One-step predicted state variances `P_{i|i−1}`.
    pub predicted_var: Vec<f64>,
    /// Innovations `v_i = y_i − x_{i|i−1}` (the `a_i` fed to GARCH).
    pub innovations: Vec<f64>,
    /// Innovation variances `F_i`.
    pub innovation_var: Vec<f64>,
    /// Gaussian log-likelihood of the observations.
    pub loglik: f64,
    /// Final Kalman gain (needed by the lag-one smoother).
    pub last_gain: f64,
}

/// Runs the Kalman filter over `y`.
pub(crate) fn kalman_filter(y: &[f64], p: &KalmanParams) -> FilterResult {
    let n = y.len();
    let mut filtered_mean = Vec::with_capacity(n);
    let mut filtered_var = Vec::with_capacity(n);
    let mut predicted_mean = Vec::with_capacity(n);
    let mut predicted_var = Vec::with_capacity(n);
    let mut innovations = Vec::with_capacity(n);
    let mut innovation_var = Vec::with_capacity(n);
    let mut loglik = 0.0;
    let mut x = p.mu0;
    let mut pv = p.p0;
    let mut gain = 0.0;
    for &obs in y {
        // Predict.
        let xp = p.c1 * x;
        let pp = p.c1 * p.c1 * pv + p.q;
        // Update (c2 = 1).
        let f = pp + p.r;
        let v = obs - xp;
        gain = pp / f;
        x = xp + gain * v;
        pv = (1.0 - gain) * pp;
        predicted_mean.push(xp);
        predicted_var.push(pp);
        filtered_mean.push(x);
        filtered_var.push(pv);
        innovations.push(v);
        innovation_var.push(f);
        loglik += -0.5 * ((2.0 * std::f64::consts::PI * f).ln() + v * v / f);
    }
    FilterResult {
        filtered_mean,
        filtered_var,
        predicted_mean,
        predicted_var,
        innovations,
        innovation_var,
        loglik,
        last_gain: gain,
    }
}

/// Output of the Rauch–Tung–Striebel smoother.
#[derive(Debug, Clone)]
pub(crate) struct SmootherResult {
    /// Smoothed state means `x_{i|n}`.
    pub mean: Vec<f64>,
    /// Smoothed state variances `P_{i|n}`.
    pub var: Vec<f64>,
    /// Lag-one smoothed covariances `P_{i,i−1|n}` (index 0 unused).
    pub lag_one_cov: Vec<f64>,
}

/// Runs the RTS smoother over a filter pass.
pub(crate) fn rts_smoother(filter: &FilterResult, p: &KalmanParams) -> SmootherResult {
    let n = filter.filtered_mean.len();
    let mut mean = filter.filtered_mean.clone();
    let mut var = filter.filtered_var.clone();
    let mut gains = vec![0.0; n]; // J_i
    for i in (0..n - 1).rev() {
        let j = filter.filtered_var[i] * p.c1 / filter.predicted_var[i + 1];
        gains[i] = j;
        mean[i] = filter.filtered_mean[i] + j * (mean[i + 1] - filter.predicted_mean[i + 1]);
        var[i] = filter.filtered_var[i] + j * j * (var[i + 1] - filter.predicted_var[i + 1]);
    }
    // Lag-one covariance recursion (Shumway & Stoffer, Property 6.3).
    let mut lag_one = vec![0.0; n];
    if n >= 2 {
        lag_one[n - 1] = (1.0 - filter.last_gain) * p.c1 * filter.filtered_var[n - 2];
        for i in (1..n - 1).rev() {
            lag_one[i] = filter.filtered_var[i] * gains[i - 1]
                + gains[i] * (lag_one[i + 1] - p.c1 * filter.filtered_var[i]) * gains[i - 1];
        }
    }
    SmootherResult {
        mean,
        var,
        lag_one_cov: lag_one,
    }
}

/// A state-space model fitted by EM.
#[derive(Debug, Clone)]
pub struct KalmanFit {
    /// Estimated parameters.
    pub params: KalmanParams,
    /// Log-likelihood trace, one entry per EM iteration (non-decreasing up
    /// to numerical tolerance — a classic EM invariant the tests check).
    pub loglik_trace: Vec<f64>,
    /// Number of EM iterations performed.
    pub iterations: usize,
    /// Final filter pass under the estimated parameters.
    pub filter: FilterResult,
}

impl KalmanFit {
    /// One-step-ahead forecast of the next observation:
    /// `r̂_t = c_1 · x_{n|n}` (with `c_2 = 1`).
    pub fn forecast_next(&self) -> f64 {
        self.params.c1
            * self
                .filter
                .filtered_mean
                .last()
                .copied()
                .unwrap_or(self.params.mu0)
    }

    /// The innovation sequence (one-step prediction errors) — the `a_i`
    /// inputs for the GARCH stage of Kalman-GARCH.
    pub fn innovations(&self) -> &[f64] {
        &self.filter.innovations
    }
}

/// EM configuration.
#[derive(Debug, Clone, Copy)]
pub struct EmConfig {
    /// Maximum EM iterations.
    pub max_iter: usize,
    /// Relative log-likelihood improvement below which EM stops.
    pub tol: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            max_iter: 50,
            tol: 1e-6,
        }
    }
}

/// Estimates `(c_1, σ²_e, σ²_η)` by EM on the observed series.
///
/// Requires at least 8 observations and a non-constant series.
pub fn fit_em(y: &[f64], config: &EmConfig) -> Result<KalmanFit, StatsError> {
    let n = y.len();
    if n < 8 {
        return Err(StatsError::InsufficientData { needed: 8, got: n });
    }
    let var = tspdb_stats::descriptive::sample_variance(y);
    if !(var > 0.0) {
        return Err(StatsError::DegenerateInput(
            "Kalman EM: constant series".into(),
        ));
    }
    let mut params = KalmanParams {
        c1: 1.0,
        q: var * 0.5,
        r: var * 0.5,
        mu0: y[0],
        p0: var,
    };
    let mut trace = Vec::with_capacity(config.max_iter);
    let mut last_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    for _ in 0..config.max_iter {
        iterations += 1;
        let filter = kalman_filter(y, &params);
        trace.push(filter.loglik);
        let smooth = rts_smoother(&filter, &params);

        // Sufficient statistics over i = 1..n−1 (pairs (i, i−1)).
        let mut s11 = 0.0;
        let mut s10 = 0.0;
        let mut s00 = 0.0;
        for i in 1..n {
            s11 += smooth.var[i] + smooth.mean[i] * smooth.mean[i];
            s10 += smooth.lag_one_cov[i] + smooth.mean[i] * smooth.mean[i - 1];
            s00 += smooth.var[i - 1] + smooth.mean[i - 1] * smooth.mean[i - 1];
        }
        let c1_new = if s00 > 0.0 { s10 / s00 } else { params.c1 };
        let q_new = ((s11 - c1_new * s10) / (n - 1) as f64).max(1e-12);
        let mut r_new = 0.0;
        for i in 0..n {
            let d = y[i] - smooth.mean[i];
            r_new += d * d + smooth.var[i];
        }
        let r_new = (r_new / n as f64).max(1e-12);
        params = KalmanParams {
            c1: c1_new,
            q: q_new,
            r: r_new,
            mu0: smooth.mean[0],
            p0: params.p0,
        };

        let ll = filter.loglik;
        let converged = (ll - last_ll).abs() < config.tol * (1.0 + ll.abs());
        last_ll = ll;
        if converged {
            break;
        }
    }
    let filter = kalman_filter(y, &params);
    Ok(KalmanFit {
        params,
        loglik_trace: trace,
        iterations,
        filter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tspdb_stats::Normal;

    /// Simulates the state-space model with known parameters.
    fn simulate(p: &KalmanParams, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let std_e = Normal::from_mean_std(0.0, p.q.sqrt());
        let std_eta = Normal::from_mean_std(0.0, p.r.sqrt());
        let mut x = p.mu0;
        let mut states = Vec::with_capacity(n);
        let mut obs = Vec::with_capacity(n);
        for _ in 0..n {
            x = p.c1 * x + std_e.sample(&mut rng);
            states.push(x);
            obs.push(x + std_eta.sample(&mut rng));
        }
        (states, obs)
    }

    #[test]
    fn filter_tracks_the_state() {
        let p = KalmanParams {
            c1: 0.95,
            q: 0.1,
            r: 1.0,
            mu0: 0.0,
            p0: 1.0,
        };
        let (states, obs) = simulate(&p, 2000, 1);
        let f = kalman_filter(&obs, &p);
        // Filtered estimates must beat the raw observations at recovering
        // the latent state.
        let err_filter: f64 = states
            .iter()
            .zip(&f.filtered_mean)
            .map(|(s, m)| (s - m) * (s - m))
            .sum::<f64>()
            / states.len() as f64;
        let err_raw: f64 = states
            .iter()
            .zip(&obs)
            .map(|(s, o)| (s - o) * (s - o))
            .sum::<f64>()
            / states.len() as f64;
        assert!(
            err_filter < err_raw * 0.5,
            "filter MSE {err_filter} not ≪ raw MSE {err_raw}"
        );
    }

    #[test]
    fn smoother_improves_on_filter() {
        let p = KalmanParams {
            c1: 0.9,
            q: 0.2,
            r: 1.5,
            mu0: 0.0,
            p0: 1.0,
        };
        let (states, obs) = simulate(&p, 1500, 2);
        let f = kalman_filter(&obs, &p);
        let s = rts_smoother(&f, &p);
        let mse = |est: &[f64]| {
            states
                .iter()
                .zip(est)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / states.len() as f64
        };
        assert!(
            mse(&s.mean) < mse(&f.filtered_mean) * 1.01,
            "smoother should not be worse than filter"
        );
        // Smoothed variances are no larger than filtered ones (information
        // can only grow).
        for (sv, fv) in s.var.iter().zip(&f.filtered_var) {
            assert!(sv <= &(fv * 1.0001));
        }
    }

    #[test]
    fn em_loglik_is_monotone() {
        let p = KalmanParams {
            c1: 0.98,
            q: 0.05,
            r: 0.8,
            mu0: 0.0,
            p0: 1.0,
        };
        let (_, obs) = simulate(&p, 600, 3);
        let fit = fit_em(&obs, &EmConfig::default()).unwrap();
        for w in fit.loglik_trace.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6 * (1.0 + w[0].abs()),
                "EM log-likelihood decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn em_recovers_transition_coefficient() {
        let p = KalmanParams {
            c1: 0.9,
            q: 0.3,
            r: 1.0,
            mu0: 0.0,
            p0: 1.0,
        };
        let (_, obs) = simulate(&p, 4000, 4);
        let fit = fit_em(
            &obs,
            &EmConfig {
                max_iter: 100,
                tol: 1e-9,
            },
        )
        .unwrap();
        assert!(
            (fit.params.c1 - 0.9).abs() < 0.05,
            "c1 = {} ≉ 0.9",
            fit.params.c1
        );
        // Noise variances land in the right order of magnitude.
        assert!(
            fit.params.q > 0.05 && fit.params.q < 1.5,
            "q = {}",
            fit.params.q
        );
        assert!(
            fit.params.r > 0.3 && fit.params.r < 2.5,
            "r = {}",
            fit.params.r
        );
    }

    #[test]
    fn forecast_next_uses_transition() {
        let p = KalmanParams {
            c1: 0.5,
            q: 0.1,
            r: 0.1,
            mu0: 0.0,
            p0: 1.0,
        };
        let (_, obs) = simulate(&p, 100, 5);
        let fit = fit_em(&obs, &EmConfig::default()).unwrap();
        let f = fit.forecast_next();
        let last = fit.filter.filtered_mean.last().unwrap();
        assert!((f - fit.params.c1 * last).abs() < 1e-12);
    }

    #[test]
    fn innovations_have_reasonable_scale() {
        let p = KalmanParams {
            c1: 1.0,
            q: 0.01,
            r: 1.0,
            mu0: 0.0,
            p0: 1.0,
        };
        let (_, obs) = simulate(&p, 1000, 6);
        let fit = fit_em(&obs, &EmConfig::default()).unwrap();
        let innov_var = tspdb_stats::descriptive::sample_variance(&fit.innovations()[20..]);
        // Innovation variance ≈ predicted var + obs var ≈ 1.0-1.2 here.
        assert!(
            innov_var > 0.5 && innov_var < 2.0,
            "innovation variance {innov_var}"
        );
    }

    #[test]
    fn rejects_tiny_and_constant_input() {
        assert!(fit_em(&[1.0; 4], &EmConfig::default()).is_err());
        assert!(fit_em(&[2.0; 50], &EmConfig::default()).is_err());
    }
}
