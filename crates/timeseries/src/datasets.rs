//! Canned datasets mirroring the paper's Table II.
//!
//! The original datasets (EPFL campus temperature, Copenhagen GPS logs) are
//! not redistributable; these constructors produce seeded synthetic
//! stand-ins with the same cardinality, sampling cadence, accuracy scale
//! and — crucially — the same qualitative volatility structure (verified by
//! the Fig. 15 ARCH test in the experiment harness). See DESIGN.md
//! "Substitutions".

use crate::generate::{GpsGenerator, TemperatureGenerator};
use crate::series::TimeSeries;

/// Number of observations in campus-data (paper Table II: 18031).
pub(crate) const CAMPUS_LEN: usize = 18_031;
/// Number of observations in car-data (paper Table II: 10473).
pub(crate) const CAR_LEN: usize = 10_473;

/// The campus-data stand-in: ambient temperature, 2-minute sampling,
/// 18,031 observations (≈ 25 days).
pub fn campus_data() -> TimeSeries {
    TemperatureGenerator::default().generate(CAMPUS_LEN)
}

/// The car-data stand-in: GPS x-coordinate, 1-2 s sampling, 10,473
/// observations (≈ 5.5 hours).
pub fn car_data() -> TimeSeries {
    GpsGenerator::default().generate(CAR_LEN)
}

/// A row of the paper's Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Dataset label used throughout the experiments.
    pub name: &'static str,
    /// What the sensor measures.
    pub monitored: &'static str,
    /// Observation count.
    pub count: usize,
    /// Stated sensor accuracy.
    pub accuracy: &'static str,
    /// Sampling interval.
    pub sampling_interval: &'static str,
}

/// Regenerates Table II ("Summary of datasets").
pub fn table2() -> Vec<DatasetSummary> {
    vec![
        DatasetSummary {
            name: "campus-data",
            monitored: "Temperature",
            count: campus_data().len(),
            accuracy: "± 0.3 deg. C",
            sampling_interval: "2 minutes",
        },
        DatasetSummary {
            name: "car-data",
            monitored: "GPS Position",
            count: car_data().len(),
            accuracy: "± 10 meters",
            sampling_interval: "1-2 seconds",
        },
    ]
}

/// The user-defined uniform-thresholding bound `u` appropriate for each
/// dataset: the paper ties uncertainty ranges to sensor accuracy, so we use
/// the Table II accuracy figures.
pub fn uniform_threshold_for(name: &str) -> f64 {
    match name {
        "campus-data" | "temperature" => 0.3,
        "car-data" | "gps_x" => 10.0,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_cardinalities_match_table2() {
        assert_eq!(campus_data().len(), 18_031);
        assert_eq!(car_data().len(), 10_473);
    }

    #[test]
    fn table2_rows_are_consistent() {
        let t = table2();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].count, CAMPUS_LEN);
        assert_eq!(t[1].count, CAR_LEN);
        assert_eq!(t[0].monitored, "Temperature");
        assert_eq!(t[1].monitored, "GPS Position");
    }

    #[test]
    fn datasets_are_deterministic() {
        assert_eq!(campus_data().head(100), campus_data().head(100));
        assert_eq!(car_data().head(100), car_data().head(100));
    }

    #[test]
    fn campus_sampling_interval_is_two_minutes() {
        let s = campus_data();
        let ts = s.timestamps();
        assert!(ts.windows(2).all(|w| w[1] - w[0] == 120));
    }

    #[test]
    fn thresholds_follow_sensor_accuracy() {
        assert_eq!(uniform_threshold_for("campus-data"), 0.3);
        assert_eq!(uniform_threshold_for("car-data"), 10.0);
        assert_eq!(uniform_threshold_for("unknown"), 1.0);
    }
}
