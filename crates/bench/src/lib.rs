#![allow(
    // `!(x > 0.0)` deliberately catches NaN alongside non-positive values
    // in numeric guards; `partial_cmp` obscures that intent.
    clippy::neg_cmp_op_on_partial_ord,
    // Index-based loops mirror the textbook formulations of the numeric
    // kernels (Cholesky, Levinson-Durbin, filters) they implement.
    clippy::needless_range_loop
)]
//! # tspdb-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section VII). The `experiments` binary drives the functions
//! in [`experiments`]; each prints the same rows/series the paper reports
//! (`cargo run --release -p tspdb-bench --bin experiments -- <fig>`). The
//! package's other binary, `loadgen`, is the wire divergence and
//! crash-recovery smoke; performance is measured by `tspbench`.

pub mod experiments;
pub(crate) mod report;
