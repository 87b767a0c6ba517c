//! # tspdb-models
//!
//! Time-series model estimation substrate for the `tspdb` workspace — the
//! mathematical machinery behind the paper's dynamic density metrics:
//!
//! * [`arma`] — ARMA(p, q) fitting (Hannan–Rissanen) and the one-step
//!   expected-true-value forecast of eq. 2.
//! * [`garch`] — GARCH(1,1) quasi-MLE and the eq. 6 volatility forecast.
//! * [`kalman`] — scalar state-space filtering/smoothing with EM parameter
//!   estimation (eq. 7-8), deliberately iterative like the paper's.
//! * [`archtest`] — the ARCH-effect hypothesis test of Section VII-D
//!   (eq. 15-16) used to verify time-varying volatility (Fig. 15).
//! * [`order`] — AIC/BIC model-order selection (extension).
//!
//! ## Quick start
//!
//! ```
//! use tspdb_models::fit_arma;
//!
//! // An AR(1) series x_t = 0.6·x_{t−1} + ε_t with LCG pseudo-noise.
//! let mut state = 42u64;
//! let mut next = || {
//!     state = state
//!         .wrapping_mul(6364136223846793005)
//!         .wrapping_add(1442695040888963407);
//!     (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
//! };
//! let mut x = vec![0.0f64];
//! for i in 1..240 {
//!     let prev = x[i - 1];
//!     x.push(0.6 * prev + next());
//! }
//! let fit = fit_arma(&x, 1, 0).unwrap();
//! assert!((fit.phi[0] - 0.6).abs() < 0.2, "phi = {}", fit.phi[0]);
//! assert!(fit.sigma2_a > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![allow(
    // `!(x > 0.0)` deliberately catches NaN alongside non-positive values
    // in numeric guards; `partial_cmp` obscures that intent.
    clippy::neg_cmp_op_on_partial_ord,
    // Index-based loops mirror the textbook formulations of the numeric
    // kernels (Cholesky, Levinson-Durbin, filters) they implement.
    clippy::needless_range_loop
)]

pub mod archtest;
pub mod arma;
pub mod garch;
pub mod kalman;
pub mod order;

pub use arma::fit_arma;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn garch_fit_constraints_hold_on_arbitrary_input(
            seed in 0u64..50,
            scale in 0.1f64..10.0,
        ) {
            // Whatever the input, the fitted parameters stay admissible.
            let s = tspdb_timeseries::generate::ArmaGarchGenerator {
                seed,
                c: 0.0,
                phi: 0.0,
                theta: 0.0,
                alpha0: 0.05 * scale,
                alpha1: 0.1,
                beta1: 0.8,
            }
            .generate(120);
            if let Ok(fit) = crate::garch::fit_garch11(s.values()) {
                prop_assert!(fit.alpha0 > 0.0);
                prop_assert!(fit.alpha1 >= 0.0);
                prop_assert!(fit.beta1 >= 0.0);
                prop_assert!(fit.persistence() < 1.0);
                for s2 in &fit.sigma2 {
                    prop_assert!(*s2 > 0.0);
                }
            }
        }

        #[test]
        fn arma_forecast_is_finite_on_bounded_series(
            seed in 0u64..50,
            p in 1usize..4,
        ) {
            let s = tspdb_timeseries::generate::ar1_series(seed, 0.5, 1.0, 150);
            if let Ok(fit) = crate::arma::fit_arma(s.values(), p, 0) {
                prop_assert!(fit.forecast.is_finite());
                // A one-step forecast of a stationary bounded series stays
                // within a generous envelope of the observed range.
                let lo = s.values().iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = s.values().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let span = hi - lo;
                prop_assert!(fit.forecast > lo - span && fit.forecast < hi + span);
            }
        }
    }
}
