//! # tspdb-stats
//!
//! Numerics substrate for the `tspdb` workspace — the from-scratch
//! statistical toolbox every higher layer builds on:
//!
//! * [`special`] — error function, gamma family, normal and chi-square
//!   quantiles (machine-precision class accuracy, no external numerics).
//! * `distributions` — [`Normal`], [`Uniform`] and the [`Density`] enum
//!   that dynamic density metrics emit.
//! * [`descriptive`] — moments, autocovariance, rolling statistics and
//!   histograms.
//! * `linalg` — small dense matrices and Cholesky.
//! * [`regression`] — ordinary least squares with ridge fallback.
//! * [`optimize`] — Nelder–Mead simplex.
//! * [`divergence`] — Hellinger distance (paper eq. 10) and the Theorem 1/2
//!   ratio-threshold bounds for the σ-cache.
//! * [`OrdF64`] — totally ordered `f64` for B-tree keyed caches.
//! * [`parallel`] — deterministic fork-join helpers over index ranges
//!   (shared by the Ω-view builder and the possible-worlds executor).
//!
//! This crate deliberately has no dependency other than `rand` (sampling);
//! everything numerical is implemented and tested here.
//!
//! ## Quick start
//!
//! ```
//! use tspdb_stats::{Density, Normal};
//!
//! let d = Density::Gaussian(Normal::from_mean_var(0.0, 4.0));
//! assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
//! // κ = 3 standard deviations hold ≈ 99.73 % of the mass.
//! assert!((d.prob_in(-6.0, 6.0) - 0.9973).abs() < 1e-4);
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

pub mod descriptive;
pub(crate) mod distributions;
pub mod divergence;
pub mod error;
pub(crate) mod linalg;
pub mod optimize;
pub(crate) mod ordf64;
pub mod parallel;
pub mod regression;
pub mod special;

pub use distributions::{Density, Normal, Uniform};
pub use error::StatsError;
pub use ordf64::OrdF64;

#[cfg(test)]
mod proptests {
    use crate::special::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn erf_is_odd_and_bounded(x in -6.0f64..6.0) {
            let e = erf(x);
            prop_assert!((-1.0..=1.0).contains(&e));
            prop_assert!((erf(-x) + e).abs() < 1e-12);
        }

        #[test]
        fn normal_cdf_is_monotone(a in -8.0f64..8.0, b in -8.0f64..8.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(std_normal_cdf(lo) <= std_normal_cdf(hi) + 1e-15);
        }

        #[test]
        fn normal_quantile_inverts_cdf(p in 1e-6f64..0.999999) {
            let x = std_normal_quantile(p);
            prop_assert!((std_normal_cdf(x) - p).abs() < 1e-9);
        }

        #[test]
        fn gammp_in_unit_interval(a in 0.1f64..30.0, x in 0.0f64..60.0) {
            let p = gammp(a, x);
            prop_assert!((0.0..=1.0).contains(&p));
        }

        #[test]
        fn chi_square_quantile_round_trips(p in 0.001f64..0.999, k in 1u32..20) {
            let x = chi_square_quantile(p, k as f64);
            prop_assert!((chi_square_cdf(x, k as f64) - p).abs() < 1e-7);
        }
    }

    mod divergence_props {
        use crate::divergence::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn hellinger_sq_in_unit_interval(s1 in 1e-3f64..1e3, s2 in 1e-3f64..1e3) {
                let h = hellinger_sq_equal_mean(s1, s2);
                prop_assert!((0.0..=1.0).contains(&h));
            }

            #[test]
            fn theorem1_guarantee_holds(h in 0.001f64..0.8, s in 0.01f64..100.0) {
                // Any ratio below the bound keeps the distance within H'.
                let ds = ratio_threshold_for_distance(h);
                let achieved = hellinger_equal_mean(s, s * ds);
                prop_assert!(achieved <= h + 1e-9);
            }
        }
    }
}
