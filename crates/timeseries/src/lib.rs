//! # tspdb-timeseries
//!
//! Time-series substrate for the `tspdb` workspace:
//!
//! * [`TimeSeries`] — the container for the paper's `S = ⟨r_1, …, r_t⟩`,
//!   with timestamped access.
//! * [`generate`] — seeded synthetic generators standing in for the
//!   paper's proprietary datasets (see DESIGN.md "Substitutions").
//! * [`errors`] — spike injection replicating the paper's erroneous-value
//!   insertion procedure (Section VII-B).
//! * [`datasets`] — canned campus-data / car-data constructors and the
//!   Table II summary.
//!
//! ## Quick start
//!
//! ```
//! use tspdb_timeseries::TimeSeries;
//!
//! let s = TimeSeries::regular("temp", 0, 1, vec![20.0, 21.5, 19.8]);
//! assert_eq!(s.len(), 3);
//! assert_eq!(s.values()[1], 21.5);
//! assert_eq!(s.timestamps(), &[0, 1, 2]);
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

pub mod datasets;
pub mod errors;
pub mod generate;
pub(crate) mod series;

pub use series::{Observation, TimeSeries};
