//! Probability distributions used by the dynamic density metrics.
//!
//! The paper's metrics emit either a uniform density (uniform thresholding,
//! Section III) or a Gaussian density (variable thresholding and the
//! GARCH-family metrics, Sections III-V). Both are represented by the
//! [`Density`] enum so downstream components (Ω-view builder, σ-cache,
//! density distance) can handle either uniformly.

use crate::special::{std_normal_cdf, std_normal_quantile};
use rand::Rng;

/// Gaussian distribution `N(mean, var)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a Gaussian with the given mean and *variance*.
    ///
    /// # Panics
    /// Panics if `var` is not strictly positive and finite.
    pub fn from_mean_var(mean: f64, var: f64) -> Self {
        assert!(
            var.is_finite() && var > 0.0,
            "Normal: variance must be positive and finite, got {var}"
        );
        Normal {
            mean,
            std: var.sqrt(),
        }
    }

    /// Creates a Gaussian with the given mean and standard deviation.
    pub fn from_mean_std(mean: f64, std: f64) -> Self {
        assert!(
            std.is_finite() && std > 0.0,
            "Normal: std must be positive and finite, got {std}"
        );
        Normal { mean, std }
    }

    /// Location parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Variance.
    pub(crate) fn var(&self) -> f64 {
        self.std * self.std
    }

    /// Cumulative probability `P(X ≤ x)`.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.std)
    }

    /// Quantile function; inverse of [`Normal::cdf`].
    pub(crate) fn quantile(&self, p: f64) -> f64 {
        self.mean + self.std * std_normal_quantile(p)
    }

    /// Probability mass on the interval `[lo, hi]`.
    pub(crate) fn prob_in(&self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        (self.cdf(hi) - self.cdf(lo)).max(0.0)
    }

    /// Draws one sample (Box–Muller is avoided; we invert the CDF so that a
    /// single uniform drives a single normal deterministically, which keeps
    /// the synthetic dataset generators reproducible under seeding).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.quantile(u)
    }
}

/// Continuous uniform distribution on `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "Uniform: need finite lo < hi, got [{lo}, {hi}]"
        );
        Uniform { lo, hi }
    }

    /// Mean `(lo + hi) / 2`.
    pub(crate) fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Variance `(hi − lo)² / 12`.
    pub(crate) fn var(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }

    /// Cumulative probability `P(X ≤ x)`.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (x - self.lo) / (self.hi - self.lo)
        }
    }

    /// Probability mass on the interval `[lo, hi]`.
    pub(crate) fn prob_in(&self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        (self.cdf(hi) - self.cdf(lo)).max(0.0)
    }
}

/// A probability density inferred by a dynamic density metric: the paper's
/// `p_t(R_t)` (Definition 1).
///
/// Uniform thresholding emits [`Density::Uniform`]; all other metrics emit
/// [`Density::Gaussian`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Density {
    /// Uniform uncertainty range centred on the expected true value.
    Uniform(Uniform),
    /// Gaussian `N(r̂_t, σ̂²_t)`.
    Gaussian(Normal),
}

impl Density {
    /// Expected value `E(R_t)` — the paper's expected true value `r̂_t`
    /// (Definition 3).
    pub fn mean(&self) -> f64 {
        match self {
            Density::Uniform(u) => u.mean(),
            Density::Gaussian(n) => n.mean(),
        }
    }

    /// Variance of the density.
    pub fn var(&self) -> f64 {
        match self {
            Density::Uniform(u) => u.var(),
            Density::Gaussian(n) => n.var(),
        }
    }

    /// Standard deviation of the density.
    pub fn std(&self) -> f64 {
        self.var().sqrt()
    }

    /// Cumulative probability `P_t(R_t ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        match self {
            Density::Uniform(u) => u.cdf(x),
            Density::Gaussian(n) => n.cdf(x),
        }
    }

    /// Probability of the event `R_t ∈ [lo, hi]` — the `ρ_ω` of the paper's
    /// probability value generation query (Definition 2).
    pub fn prob_in(&self, lo: f64, hi: f64) -> f64 {
        match self {
            Density::Uniform(u) => u.prob_in(lo, hi),
            Density::Gaussian(n) => n.prob_in(lo, hi),
        }
    }

    /// The probability integral transform of an observation under this
    /// density: `z = P_t(R_t ≤ r_t)` (Section II-B). Uniform on `(0,1)`
    /// exactly when this density matches the data-generating one.
    pub fn pit(&self, observation: f64) -> f64 {
        self.cdf(observation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_cdf_quantile_round_trip() {
        let n = Normal::from_mean_std(-3.0, 2.5);
        for &p in &[0.01, 0.2, 0.5, 0.7, 0.99] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn normal_three_sigma_mass() {
        // κ = 3 bounds contain ≈ 0.9973 of the mass (paper, Algorithm 1).
        let n = Normal::from_mean_std(5.0, 1.7);
        let mass = n.prob_in(5.0 - 3.0 * 1.7, 5.0 + 3.0 * 1.7);
        assert!((mass - 0.9973).abs() < 1e-4);
    }

    #[test]
    fn normal_sampling_moments() {
        let n = Normal::from_mean_std(1.0, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..20000).map(|_| n.sample(&mut rng)).collect();
        let m = crate::descriptive::mean(&xs);
        let s = crate::descriptive::sample_std(&xs);
        assert!((m - 1.0).abs() < 0.05, "sample mean {m}");
        assert!((s - 2.0).abs() < 0.05, "sample std {s}");
    }

    #[test]
    fn uniform_cdf_and_mass() {
        let u = Uniform::new(2.0, 6.0);
        assert_eq!(u.cdf(1.0), 0.0);
        assert_eq!(u.cdf(7.0), 1.0);
        assert!((u.cdf(4.0) - 0.5).abs() < 1e-12);
        assert!((u.prob_in(3.0, 5.0) - 0.5).abs() < 1e-12);
        assert!((u.mean() - 4.0).abs() < 1e-12);
        assert!((u.var() - 16.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn density_dispatch_consistency() {
        let g = Density::Gaussian(Normal::from_mean_var(0.0, 1.0));
        let u = Density::Uniform(Uniform::new(-1.0, 1.0));
        assert!((g.prob_in(-1.0, 1.0) - 0.6827).abs() < 1e-3);
        assert!((u.prob_in(-1.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((g.pit(0.0) - 0.5).abs() < 1e-12);
        assert!((u.pit(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prob_in_empty_or_inverted_interval_is_zero() {
        let g = Density::Gaussian(Normal::from_mean_var(0.0, 1.0));
        assert_eq!(g.prob_in(1.0, 1.0), 0.0);
        assert_eq!(g.prob_in(2.0, -2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "variance must be positive")]
    fn normal_rejects_zero_variance() {
        Normal::from_mean_var(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_rejects_inverted_bounds() {
        Uniform::new(3.0, 1.0);
    }
}
