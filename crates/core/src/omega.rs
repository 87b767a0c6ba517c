//! The Ω lattice and the probability value generation query (paper
//! Definitions 2 and Section VI, eq. 9).
//!
//! A probabilistic view decomposes the value domain into `n` ranges of
//! width `Δ` centred on the expected true value:
//! `Ω = { [r̂_t + λΔ, r̂_t + (λ+1)Δ] : λ = −n/2 … n/2 − 1 }`, and the
//! probability of each range is the integral of the inferred density over
//! it: `ρ_λ = P_t(r̂_t + (λ+1)Δ) − P_t(r̂_t + λΔ)`.

use crate::error::CoreError;
use tspdb_stats::Density;

/// The view parameters `(Δ, n)` of Section VI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OmegaSpec {
    /// Cell width `Δ > 0`.
    pub delta: f64,
    /// Cell count `n` (positive and even, per the paper's definition of the
    /// λ range).
    pub n: usize,
}

impl OmegaSpec {
    /// Creates and validates a spec.
    pub fn new(delta: f64, n: usize) -> Result<Self, CoreError> {
        if !(delta > 0.0) || !delta.is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "omega delta must be positive and finite, got {delta}"
            )));
        }
        if n == 0 || !n.is_multiple_of(2) {
            return Err(CoreError::InvalidConfig(format!(
                "omega n must be a positive even integer, got {n}"
            )));
        }
        Ok(OmegaSpec { delta, n })
    }

    /// The λ values `−n/2 … n/2 − 1`, one per range.
    pub(crate) fn lambdas(&self) -> impl Iterator<Item = i64> {
        let half = self.n as i64 / 2;
        -half..half
    }

    /// The lattice offsets `λΔ` for `λ = −n/2 … n/2` (n + 1 points) —
    /// exactly the evaluation points the σ-cache stores per distribution
    /// (Fig. 9).
    pub(crate) fn offsets(&self) -> Vec<f64> {
        let half = self.n as i64 / 2;
        (-half..=half).map(|l| l as f64 * self.delta).collect()
    }

    /// The concrete range `[lo, hi]` of cell `λ` around `r̂`.
    pub(crate) fn range(&self, r_hat: f64, lambda: i64) -> (f64, f64) {
        (
            r_hat + lambda as f64 * self.delta,
            r_hat + (lambda + 1) as f64 * self.delta,
        )
    }

    /// Total lattice span `nΔ`.
    #[cfg(test)]
    pub(crate) fn span(&self) -> f64 {
        self.n as f64 * self.delta
    }
}

/// One row of a generated probability view: the paper's `(ω, ρ_ω)` pair at
/// time `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityValue {
    /// Cell index λ.
    pub lambda: i64,
    /// Range lower bound `r̂_t + λΔ`.
    pub lo: f64,
    /// Range upper bound `r̂_t + (λ+1)Δ`.
    pub hi: f64,
    /// Probability mass `ρ_λ` (eq. 9).
    pub rho: f64,
}

/// Evaluates the probability value generation query for one density: the
/// set `Λ_t = {ρ_ω}` of Definition 2, computed directly from the density's
/// CDF.
pub(crate) fn probability_values(density: &Density, spec: &OmegaSpec) -> Vec<ProbabilityValue> {
    let r_hat = density.mean();
    // Evaluate the CDF once per lattice point and difference, exactly as
    // eq. 9 prescribes — n + 1 CDF evaluations for n probabilities.
    let offsets = spec.offsets();
    let cdfs: Vec<f64> = offsets.iter().map(|o| density.cdf(r_hat + o)).collect();
    spec.lambdas()
        .enumerate()
        .map(|(i, lambda)| {
            let (lo, hi) = spec.range(r_hat, lambda);
            ProbabilityValue {
                lambda,
                lo,
                hi,
                rho: (cdfs[i + 1] - cdfs[i]).max(0.0),
            }
        })
        .collect()
}

/// Total mass captured by the lattice: `P(r̂ + nΔ/2) − P(r̂ − nΔ/2)`, the
/// reference the tests hold the summed probability values to (a lattice
/// that is too narrow loses tail mass).
#[cfg(test)]
pub(crate) fn lattice_coverage(density: &Density, spec: &OmegaSpec) -> f64 {
    let r_hat = density.mean();
    let half = spec.span() / 2.0;
    density.prob_in(r_hat - half, r_hat + half)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_stats::{Normal, Uniform};

    fn gaussian(mean: f64, std: f64) -> Density {
        Density::Gaussian(Normal::from_mean_std(mean, std))
    }

    #[test]
    fn spec_validation() {
        assert!(OmegaSpec::new(0.5, 4).is_ok());
        assert!(OmegaSpec::new(0.0, 4).is_err());
        assert!(OmegaSpec::new(-1.0, 4).is_err());
        assert!(OmegaSpec::new(1.0, 3).is_err());
        assert!(OmegaSpec::new(1.0, 0).is_err());
    }

    #[test]
    fn lambda_range_matches_paper() {
        let spec = OmegaSpec::new(2.0, 4).unwrap();
        let ls: Vec<i64> = spec.lambdas().collect();
        assert_eq!(ls, vec![-2, -1, 0, 1]);
        assert_eq!(spec.offsets(), vec![-4.0, -2.0, 0.0, 2.0, 4.0]);
        assert_eq!(spec.range(10.0, -2), (6.0, 8.0));
        assert_eq!(spec.span(), 8.0);
    }

    #[test]
    fn probabilities_sum_to_lattice_coverage() {
        let d = gaussian(5.0, 1.3);
        let spec = OmegaSpec::new(0.5, 12).unwrap();
        let values = probability_values(&d, &spec);
        assert_eq!(values.len(), 12);
        let total: f64 = values.iter().map(|v| v.rho).sum();
        let coverage = lattice_coverage(&d, &spec);
        assert!((total - coverage).abs() < 1e-12);
        assert!(total < 1.0 && total > 0.95);
    }

    #[test]
    fn gaussian_probabilities_are_symmetric() {
        let d = gaussian(0.0, 2.0);
        let spec = OmegaSpec::new(1.0, 8).unwrap();
        let values = probability_values(&d, &spec);
        // ρ_{-λ-1} == ρ_λ by symmetry around the mean.
        for i in 0..4 {
            let left = values[i].rho;
            let right = values[7 - i].rho;
            assert!(
                (left - right).abs() < 1e-12,
                "asymmetry at {i}: {left} vs {right}"
            );
        }
        // Central cells carry the most mass.
        assert!(values[3].rho > values[0].rho);
    }

    #[test]
    fn uniform_density_fills_cells_proportionally() {
        let d = Density::Uniform(Uniform::new(-1.0, 1.0));
        let spec = OmegaSpec::new(0.5, 4).unwrap();
        let values = probability_values(&d, &spec);
        // The uniform support exactly covers the lattice: each cell 0.25.
        for v in &values {
            assert!((v.rho - 0.25).abs() < 1e-12, "{v:?}");
        }
        assert!((lattice_coverage(&d, &spec) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranges_tile_the_lattice_without_gaps() {
        let d = gaussian(3.0, 1.0);
        let spec = OmegaSpec::new(0.7, 10).unwrap();
        let values = probability_values(&d, &spec);
        for pair in values.windows(2) {
            assert!((pair[0].hi - pair[1].lo).abs() < 1e-12);
        }
        assert!((values[0].lo - (3.0 - 3.5)).abs() < 1e-12);
        assert!((values[9].hi - (3.0 + 3.5)).abs() < 1e-12);
    }

    #[test]
    fn mass_concentrates_as_sigma_shrinks() {
        let spec = OmegaSpec::new(0.1, 20).unwrap();
        let wide = probability_values(&gaussian(0.0, 3.0), &spec);
        let narrow = probability_values(&gaussian(0.0, 0.1), &spec);
        let centre = spec.n / 2; // λ = 0 cell
        assert!(narrow[centre].rho > wide[centre].rho * 3.0);
    }

    #[test]
    fn fig1_example_shape() {
        // Alice at time 1: a Gaussian centred in room 1's x-range gives room
        // 1 the highest mass — a sanity replay of the motivating figure.
        let d = gaussian(1.0, 0.8);
        let spec = OmegaSpec::new(1.0, 4).unwrap(); // cells [-2,-1),[-1,0),[0,1),[1,2) around r̂=1
        let values = probability_values(&d, &spec);
        // Cell λ=-1 is [0,1): contains the approach to the mean from below;
        // by symmetry cells adjacent to the mean dominate.
        assert!(values[1].rho > values[0].rho);
        assert!(values[2].rho > values[3].rho);
    }
}
