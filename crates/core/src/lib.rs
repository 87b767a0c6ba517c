//! # tspdb-core
//!
//! The primary contribution of *"Creating Probabilistic Databases from
//! Imprecise Time-Series Data"* (Sathe, Jeung, Aberer — ICDE 2011),
//! implemented on the `tspdb` substrate crates:
//!
//! * [`metrics`] — the dynamic density metrics (Definition 1): uniform /
//!   variable thresholding, ARMA-GARCH (Algorithm 1) and Kalman-GARCH.
//! * [`cgarch`] — C-GARCH, the cleaning-enhanced metric (Section V), with
//!   the successive variance reduction filter in `svr` (Algorithm 2).
//! * [`quality`] — the density distance quality measure (Section II-B,
//!   eq. 1).
//! * `omega` — the Ω lattice and the probability value generation query
//!   (Definition 2, eq. 9).
//! * [`sigma_cache`] — the σ-cache with Theorem 1/2 guarantees
//!   (Section VI-A/B).
//! * [`builder`] — the Ω-view builder materialising tuple-independent
//!   probabilistic views; [`SharedEngine`] exposes it behind
//!   the paper's SQL-like syntax (Fig. 7) and, as rows stream in, keeps
//!   each view's model table and infers only the appended windows (the
//!   paper's online mode).
//!
//! ## Quick start
//!
//! ```
//! use tspdb_core::SharedEngine;
//! use tspdb_timeseries::generate::TemperatureGenerator;
//!
//! let engine = SharedEngine::default();
//! let series = TemperatureGenerator::default().generate(150);
//! engine.load_series("raw_values", "r", &series).unwrap();
//! engine
//!     .execute("CREATE VIEW prob_view AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
//!     .unwrap();
//! let out = engine.execute("SELECT * FROM prob_view WHERE prob >= 0.2").unwrap();
//! assert!(out.prob_rows().unwrap().len() > 0);
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

pub mod builder;
pub mod cgarch;
pub(crate) mod concurrent;
pub(crate) mod error;
pub mod metrics;
pub(crate) mod omega;
pub mod quality;
pub mod sigma_cache;
pub(crate) mod svr;

pub use builder::ViewBuilderConfig;
pub use concurrent::{MaintenancePath, SharedEngine};
pub use error::CoreError;
pub use metrics::{DynamicDensityMetric, Inference, MetricConfig, MetricKind};
pub use omega::OmegaSpec;
pub use sigma_cache::{SigmaCache, SigmaCacheConfig};
/// The persistent storage engine backing [`SharedEngine::open_persistent`]
/// (re-exported so engine users reach the fault-injection and cache
/// diagnostics without a direct `tspdb-storage` dependency).
pub use tspdb_storage as storage;

#[cfg(test)]
mod proptests {
    use crate::omega::{probability_values, OmegaSpec};
    use crate::sigma_cache::{direct_probability_values, SigmaCache, SigmaCacheConfig};
    use proptest::prelude::*;
    use tspdb_stats::{Density, Normal};

    proptest! {
        #[test]
        fn omega_masses_are_valid_probabilities(
            mean in -100.0f64..100.0,
            std in 0.01f64..50.0,
            delta in 0.01f64..5.0,
            half_n in 1usize..40,
        ) {
            let spec = OmegaSpec::new(delta, half_n * 2).unwrap();
            let d = Density::Gaussian(Normal::from_mean_std(mean, std));
            let values = probability_values(&d, &spec);
            let total: f64 = values.iter().map(|v| v.rho).sum();
            prop_assert!(total <= 1.0 + 1e-9);
            for v in &values {
                prop_assert!((0.0..=1.0).contains(&v.rho));
                prop_assert!(v.hi > v.lo);
            }
        }

        #[test]
        fn sigma_cache_never_violates_distance_constraint(
            min_sigma in 0.01f64..1.0,
            spread in 1.0f64..500.0,
            h_prime in 0.005f64..0.2,
            probe in 0.0f64..1.0,
        ) {
            let spec = OmegaSpec::new(0.1, 10).unwrap();
            let max_sigma = min_sigma * spread;
            let cache = SigmaCache::build(
                min_sigma,
                max_sigma,
                spec,
                SigmaCacheConfig {
                    distance_constraint: Some(h_prime),
                    memory_constraint: None,
                },
            )
            .unwrap();
            let sigma = min_sigma + probe * (max_sigma - min_sigma);
            let rung = cache.rung_for(sigma).unwrap();
            let h = tspdb_stats::divergence::hellinger_equal_mean(rung, sigma);
            prop_assert!(h <= h_prime + 1e-9, "H {} > H' {}", h, h_prime);
            // Cached answer stays close to the direct one.
            let cached = cache.probability_values(0.0, sigma);
            let direct = direct_probability_values(0.0, sigma, &spec);
            for (c, d) in cached.iter().zip(&direct) {
                prop_assert!((c.rho - d.rho).abs() < 4.0 * h_prime);
            }
        }

        #[test]
        fn svr_filter_output_length_and_budget(
            spikes in proptest::collection::vec((4usize..28, -500.0f64..500.0), 0..4),
        ) {
            let mut values: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin()).collect();
            for (idx, magnitude) in &spikes {
                values[*idx] += magnitude;
            }
            let out = crate::svr::svr_filter(&values, 0.6);
            prop_assert_eq!(out.values.len(), 32);
            prop_assert!(out.replaced.len() <= 16);
            for v in &out.values {
                prop_assert!(v.is_finite());
            }
        }
    }
}
