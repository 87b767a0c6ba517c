//! # tspdb — probabilistic databases from imprecise time series
//!
//! A full Rust implementation of *"Creating Probabilistic Databases from
//! Imprecise Time-Series Data"* (Sathe, Jeung, Aberer — ICDE 2011): dynamic
//! density metrics (ARMA-GARCH, Kalman-GARCH, C-GARCH and the naive
//! thresholding baselines), the density-distance quality measure, the
//! Ω-view builder with its SQL-like query syntax, and the σ-cache with
//! provable distance/memory guarantees — plus every substrate they need
//! (numerics, time-series tooling, model estimation, and a
//! tuple-independent probabilistic database).
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! * [`stats`] — special functions, distributions, regression, optimisation.
//! * [`timeseries`] — series containers, generators, datasets.
//! * [`models`] — ARMA / GARCH / Kalman estimation, ARCH-effect test.
//! * [`probdb`] — tuple-independent tables, probabilistic operators, SQL.
//! * [`core`] — the paper's contribution: metrics, Ω-views, σ-cache.
//!
//! ## Quick start
//!
//! ```
//! use tspdb::SharedEngine;
//! use tspdb::timeseries::generate::TemperatureGenerator;
//!
//! let engine = SharedEngine::default();
//! let series = TemperatureGenerator::default().generate(200);
//! engine.load_series("raw_values", "r", &series).unwrap();
//!
//! // The paper's Fig. 7 query, verbatim syntax:
//! engine
//!     .execute(
//!         "CREATE VIEW prob_view AS DENSITY r OVER t OMEGA delta=0.5, n=6 \
//!          FROM raw_values",
//!     )
//!     .unwrap();
//!
//! let hot = engine
//!     .execute("SELECT * FROM prob_view WHERE prob >= 0.2 ORDER BY prob DESC LIMIT 5")
//!     .unwrap();
//! assert!(!hot.prob_rows().unwrap().is_empty());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use tspdb_core as core;
pub use tspdb_models as models;
pub use tspdb_probdb as probdb;
pub use tspdb_stats as stats;
pub use tspdb_timeseries as timeseries;

pub use tspdb_core::{
    CoreError, DynamicDensityMetric, Inference, MetricConfig, MetricKind, OmegaSpec, SharedEngine,
    SigmaCache, SigmaCacheConfig, ViewBuilderConfig,
};
pub use tspdb_probdb::{Database, DbError, ProbTable, QueryOutput, Table, Value};
pub use tspdb_timeseries::TimeSeries;
