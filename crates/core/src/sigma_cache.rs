//! The σ-cache (paper Section VI-A/B): caching and reusing Gaussian CDF
//! evaluations across time under provable distance and memory guarantees.
//!
//! Key observation (Fig. 8): after a mean shift, the probability values
//! `ρ_λ` depend only on σ̂ — two Gaussians with equal variance produce
//! identical Ω-lattice masses. So the cache stores, for a geometric ladder
//! of standard deviations `σ_q = d_s^q · min(σ̂)`, the zero-mean CDF
//! evaluated at the lattice offsets `λΔ` (Fig. 9), in a sorted container
//! (here a `BTreeMap`, "a B-tree" in the paper). A query with σ̂′ looks up
//! the largest ladder rung ≤ σ̂′ and reuses its values.
//!
//! * Theorem 1 (distance constraint): choosing
//!   `d_s ≤ (2 + √(4 − 4(1−H′²)⁴)) / (2(1−H′²)²)` guarantees the Hellinger
//!   distance between the true and substituted distribution is ≤ H′.
//! * Theorem 2 (memory constraint): with at most `Q′` stored
//!   distributions, `d_s ≥ D_s^{1/Q′}` where `D_s = max(σ̂)/min(σ̂)`.
//!
//! Both can be active at once; when they conflict the cache refuses to
//! build (the paper's storage/error trade-off made explicit).
//!
//! ## Concurrency model
//!
//! The ladder is computed once at build time and never mutated, so it lives
//! in an immutable `SigmaLadder` behind an `Arc`; lookups take `&self`.
//! The only mutable state is the pair of hit/miss counters, which are
//! relaxed [`AtomicU64`]s — a [`SigmaCache`] is therefore `Sync` and can
//! answer probability value generation queries from many threads with no
//! lock on the read path.

use crate::error::CoreError;
use crate::omega::{OmegaSpec, ProbabilityValue};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tspdb_stats::divergence::{ratio_threshold_for_distance, ratio_threshold_for_memory};
use tspdb_stats::special::std_normal_cdf;
use tspdb_stats::OrdF64;

/// User-facing constraints for the cache (Section VI-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmaCacheConfig {
    /// Distance constraint `H′`: maximum tolerated Hellinger distance
    /// between the true and the substituted distribution.
    pub distance_constraint: Option<f64>,
    /// Memory constraint `Q′`: maximum number of cached distributions.
    pub memory_constraint: Option<usize>,
}

impl Default for SigmaCacheConfig {
    fn default() -> Self {
        // The paper's experiments use H′ = 0.01.
        SigmaCacheConfig {
            distance_constraint: Some(0.01),
            memory_constraint: None,
        }
    }
}

/// One pre-computed distribution: the zero-mean Gaussian CDF at the lattice
/// offsets (Fig. 9).
#[derive(Debug, Clone)]
struct CachedDistribution {
    /// `Φ(λΔ / σ)` for `λ = −n/2 … n/2` (n + 1 values).
    cdf: Vec<f64>,
}

/// Cache usage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the ladder.
    pub hits: u64,
    /// Lookups that fell outside the ladder and were computed directly.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of lookups.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The immutable part of the σ-cache: the geometric σ ladder with its
/// pre-computed CDF lattices.
///
/// Built once, never mutated — every accessor takes `&self`, so a ladder
/// wrapped in an `Arc` can be shared freely across threads (it is both
/// `Send` and `Sync`).
#[derive(Debug, Clone)]
pub(crate) struct SigmaLadder {
    omega: OmegaSpec,
    ds: f64,
    min_sigma: f64,
    max_sigma: f64,
    ladder: BTreeMap<OrdF64, CachedDistribution>,
}

impl SigmaLadder {
    /// Builds the ladder for standard deviations in `[min_sigma,
    /// max_sigma]` under the given constraints.
    ///
    /// The ratio threshold is resolved as:
    /// * distance only → `d_s` from eq. 11 (largest admissible, fewest
    ///   rungs);
    /// * memory only → `d_s = D_s^{1/Q′}` from eq. 14;
    /// * both → the memory bound is used if it also satisfies the distance
    ///   bound, otherwise [`CoreError::CacheConstraintsConflict`];
    /// * neither → the default `H′ = 0.01`.
    pub(crate) fn build(
        min_sigma: f64,
        max_sigma: f64,
        omega: OmegaSpec,
        config: SigmaCacheConfig,
    ) -> Result<Self, CoreError> {
        if !(min_sigma > 0.0) || !(max_sigma >= min_sigma) || !max_sigma.is_finite() {
            return Err(CoreError::InvalidConfig(format!(
                "sigma-cache needs 0 < min(σ) ≤ max(σ), got [{min_sigma}, {max_sigma}]"
            )));
        }
        if let Some(h) = config.distance_constraint {
            if !(0.0..1.0).contains(&h) || h <= 0.0 {
                return Err(CoreError::InvalidConfig(format!(
                    "distance constraint H' must be in (0,1), got {h}"
                )));
            }
        }
        if config.memory_constraint == Some(0) {
            return Err(CoreError::InvalidConfig(
                "memory constraint Q' must be at least 1".into(),
            ));
        }
        let d_spread = max_sigma / min_sigma; // the paper's D_s (eq. 12)
        let ds = match (config.distance_constraint, config.memory_constraint) {
            (Some(h), None) => ratio_threshold_for_distance(h),
            (None, Some(q)) => ratio_threshold_for_memory(d_spread, q).max(1.0 + 1e-12),
            (Some(h), Some(q)) => {
                let ds_dist = ratio_threshold_for_distance(h);
                let ds_mem = ratio_threshold_for_memory(d_spread, q).max(1.0 + 1e-12);
                if ds_mem > ds_dist {
                    return Err(CoreError::CacheConstraintsConflict {
                        ds_distance: ds_dist,
                        ds_memory: ds_mem,
                    });
                }
                // Any d_s in [ds_mem, ds_dist] satisfies both; use the
                // distance bound (coarsest admissible ladder = least
                // memory), which also respects Q′ since it needs fewer
                // rungs than ds_mem would.
                ds_dist
            }
            (None, None) => ratio_threshold_for_distance(0.01),
        };

        // Rung count: enough powers of d_s to cover [min, max] (eq. 13).
        // Rung q = 0 (σ = min) is included so every σ̂ in range has a lower
        // bracketing rung.
        let q_max = if d_spread <= 1.0 {
            0
        } else {
            (d_spread.ln() / ds.ln()).ceil() as usize
        };
        let offsets = omega.offsets();
        let mut ladder = BTreeMap::new();
        for q in 0..=q_max {
            let sigma = min_sigma * ds.powi(q as i32);
            let cdf = offsets.iter().map(|&o| std_normal_cdf(o / sigma)).collect();
            ladder.insert(OrdF64::new(sigma), CachedDistribution { cdf });
        }
        Ok(SigmaLadder {
            omega,
            ds,
            min_sigma,
            max_sigma,
            ladder,
        })
    }

    /// The resolved ratio threshold `d_s`.
    pub(crate) fn ratio_threshold(&self) -> f64 {
        self.ds
    }

    /// Number of cached distributions (`⌈Q⌉ + 1` including the base rung).
    pub(crate) fn len(&self) -> usize {
        self.ladder.len()
    }

    /// Whether the ladder is empty (never true after a successful build).
    pub(crate) fn is_empty(&self) -> bool {
        self.ladder.is_empty()
    }

    /// Approximate memory footprint in bytes: per rung, `n + 1` CDF values
    /// plus the key and σ — the quantity plotted in Fig. 14(b).
    pub(crate) fn memory_bytes(&self) -> usize {
        let per_rung =
            (self.omega.n + 1) * std::mem::size_of::<f64>() + 2 * std::mem::size_of::<f64>();
        self.ladder.len() * per_rung
    }

    /// The worst-case Hellinger distance incurred by ladder substitution:
    /// `H(σ, σ·d_s)` — by Theorem 1 this is ≤ the configured `H′`.
    #[cfg(test)]
    pub(crate) fn worst_case_distance(&self) -> f64 {
        tspdb_stats::divergence::hellinger_equal_mean(1.0, self.ds)
    }

    /// The largest rung ≤ `sigma`, when `sigma` is inside the covered
    /// range.
    fn lookup(&self, sigma: f64) -> Option<(&OrdF64, &CachedDistribution)> {
        if sigma < self.min_sigma || sigma > self.max_sigma {
            return None;
        }
        self.ladder.range(..=OrdF64::new(sigma)).next_back()
    }

    /// The σ of the rung that would answer a query for `sigma`.
    #[cfg(test)]
    pub(crate) fn rung_for(&self, sigma: f64) -> Option<f64> {
        self.lookup(sigma).map(|(&rung, _)| f64::from(rung))
    }

    /// Answers the probability value generation query from the ladder, or
    /// `None` when σ̂ falls outside the covered range.
    pub(crate) fn probability_values(
        &self,
        r_hat: f64,
        sigma: f64,
    ) -> Option<Vec<ProbabilityValue>> {
        let (_, dist) = self.lookup(sigma)?;
        let omega = self.omega;
        Some(
            omega
                .lambdas()
                .enumerate()
                .map(|(i, lambda)| {
                    let (lo, hi) = omega.range(r_hat, lambda);
                    ProbabilityValue {
                        lambda,
                        lo,
                        hi,
                        rho: (dist.cdf[i + 1] - dist.cdf[i]).max(0.0),
                    }
                })
                .collect(),
        )
    }
}

/// The σ-cache: an [`Arc`]-shared `SigmaLadder` plus lock-free usage
/// counters.
///
/// All lookups take `&self`; the type is `Send + Sync` and can be queried
/// concurrently from many threads without any mutual exclusion.
#[derive(Debug)]
pub struct SigmaCache {
    ladder: Arc<SigmaLadder>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Clone for SigmaCache {
    /// Clones share the (immutable) ladder and start from a snapshot of the
    /// current counters, preserving the value semantics of the pre-atomic
    /// implementation.
    fn clone(&self) -> Self {
        let stats = self.stats();
        SigmaCache {
            ladder: Arc::clone(&self.ladder),
            hits: AtomicU64::new(stats.hits),
            misses: AtomicU64::new(stats.misses),
        }
    }
}

impl SigmaCache {
    /// Builds the cache for standard deviations in `[min_sigma, max_sigma]`
    /// under the given constraints (see `SigmaLadder::build`).
    pub fn build(
        min_sigma: f64,
        max_sigma: f64,
        omega: OmegaSpec,
        config: SigmaCacheConfig,
    ) -> Result<Self, CoreError> {
        Ok(SigmaCache::from_ladder(Arc::new(SigmaLadder::build(
            min_sigma, max_sigma, omega, config,
        )?)))
    }

    /// Wraps an already-built ladder with fresh counters.
    pub(crate) fn from_ladder(ladder: Arc<SigmaLadder>) -> Self {
        SigmaCache {
            ladder,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The shared immutable ladder.
    #[cfg(test)]
    pub(crate) fn ladder(&self) -> &Arc<SigmaLadder> {
        &self.ladder
    }

    /// The resolved ratio threshold `d_s`.
    pub fn ratio_threshold(&self) -> f64 {
        self.ladder.ratio_threshold()
    }

    /// Number of cached distributions (`⌈Q⌉ + 1` including the base rung).
    pub fn len(&self) -> usize {
        self.ladder.len()
    }

    /// Whether the ladder is empty (never true after a successful build).
    pub fn is_empty(&self) -> bool {
        self.ladder.is_empty()
    }

    /// Approximate memory footprint in bytes (see
    /// `SigmaLadder::memory_bytes`).
    pub fn memory_bytes(&self) -> usize {
        self.ladder.memory_bytes()
    }

    /// Usage counters, read as one snapshot.
    ///
    /// Both counters are sampled together: the hit counter is re-read until
    /// it is stable around the miss read, so under concurrent traffic the
    /// returned pair is bracketed by the true counter values at entry and
    /// exit of this method (no torn `hits`-from-one-moment /
    /// `misses`-from-another drift across lock round-trips, as the old
    /// Mutex-per-field reads produced). After a few contended attempts the
    /// last sample is returned.
    pub fn stats(&self) -> CacheStats {
        let mut hits = self.hits.load(Ordering::Acquire);
        for _ in 0..8 {
            let misses = self.misses.load(Ordering::Acquire);
            let hits_after = self.hits.load(Ordering::Acquire);
            if hits == hits_after {
                return CacheStats { hits, misses };
            }
            hits = hits_after;
        }
        CacheStats {
            hits,
            misses: self.misses.load(Ordering::Acquire),
        }
    }

    /// The worst-case Hellinger distance incurred by ladder substitution:
    /// `H(σ, σ·d_s)` — by Theorem 1 this is ≤ the configured `H′`.
    #[cfg(test)]
    pub(crate) fn worst_case_distance(&self) -> f64 {
        self.ladder.worst_case_distance()
    }

    /// Answers the probability value generation query for a Gaussian
    /// `N(r̂, σ̂²)` from the cache: finds the largest rung ≤ σ̂ and reuses
    /// its pre-computed CDF lattice (mean-shift invariance, Fig. 8).
    ///
    /// σ̂ outside `[min(σ), max(σ)]` counts as a miss and is computed
    /// directly — the guarantee only covers the range the cache was built
    /// for.
    ///
    /// Takes `&self`: the lookup is lock-free and safe to issue from many
    /// threads concurrently.
    pub fn probability_values(&self, r_hat: f64, sigma: f64) -> Vec<ProbabilityValue> {
        debug_assert!(sigma > 0.0, "sigma-cache query with non-positive σ");
        match self.ladder.probability_values(r_hat, sigma) {
            Some(values) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                values
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                direct_probability_values(r_hat, sigma, &self.ladder.omega)
            }
        }
    }

    /// The σ of the rung that would answer a query for `sigma`.
    #[cfg(test)]
    pub(crate) fn rung_for(&self, sigma: f64) -> Option<f64> {
        self.ladder.rung_for(sigma)
    }
}

/// The uncached (naive) evaluation of eq. 9 for a Gaussian: `n + 1` fresh
/// CDF computations per tuple. This is the baseline of Fig. 14(a).
pub fn direct_probability_values(
    r_hat: f64,
    sigma: f64,
    omega: &OmegaSpec,
) -> Vec<ProbabilityValue> {
    let offsets = omega.offsets();
    let cdfs: Vec<f64> = offsets.iter().map(|&o| std_normal_cdf(o / sigma)).collect();
    omega
        .lambdas()
        .enumerate()
        .map(|(i, lambda)| {
            let (lo, hi) = omega.range(r_hat, lambda);
            ProbabilityValue {
                lambda,
                lo,
                hi,
                rho: (cdfs[i + 1] - cdfs[i]).max(0.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_stats::divergence::hellinger_sq_equal_mean;

    fn omega() -> OmegaSpec {
        OmegaSpec::new(0.05, 300).unwrap()
    }

    #[test]
    fn ladder_size_matches_theory() {
        // H′ = 0.01 ⇒ d_s ≈ 1.0202; D_s = 2000 ⇒ ⌈ln D_s / ln d_s⌉ ≈ 380.
        let cache = SigmaCache::build(0.001, 2.0, omega(), SigmaCacheConfig::default()).unwrap();
        let expected = (2000.0f64.ln() / cache.ratio_threshold().ln()).ceil() as usize + 1;
        assert_eq!(cache.len(), expected);
        assert!(cache.len() >= 350 && cache.len() <= 420, "{}", cache.len());
    }

    #[test]
    fn memory_grows_logarithmically_in_spread() {
        // Fig. 14(b): doubling D_s adds a constant number of rungs.
        let sizes: Vec<usize> = [2000.0, 4000.0, 8000.0, 16000.0]
            .iter()
            .map(|&spread| {
                SigmaCache::build(1.0, spread, omega(), SigmaCacheConfig::default())
                    .unwrap()
                    .memory_bytes()
            })
            .collect();
        let d1 = sizes[1] - sizes[0];
        let d2 = sizes[2] - sizes[1];
        let d3 = sizes[3] - sizes[2];
        // Constant additive growth per doubling (within one rung).
        let per_rung = (omega().n + 3) * 8;
        assert!(d1.abs_diff(d2) <= per_rung, "{sizes:?}");
        assert!(d2.abs_diff(d3) <= per_rung, "{sizes:?}");
        // And it is *not* linear: quadrupling spread ≪ quadruple memory.
        assert!(sizes[3] < sizes[0] * 2, "{sizes:?}");
    }

    #[test]
    fn distance_guarantee_holds_for_every_query() {
        let h_prime = 0.02;
        let cache = SigmaCache::build(
            0.5,
            50.0,
            OmegaSpec::new(0.1, 20).unwrap(),
            SigmaCacheConfig {
                distance_constraint: Some(h_prime),
                memory_constraint: None,
            },
        )
        .unwrap();
        for i in 0..500 {
            let sigma = 0.5 + (i as f64 / 499.0) * 49.5;
            let rung = cache.rung_for(sigma).unwrap();
            let h = hellinger_sq_equal_mean(rung, sigma).sqrt();
            assert!(
                h <= h_prime + 1e-9,
                "σ {sigma}: rung {rung} violates H′ ({h} > {h_prime})"
            );
            // And the cache actually answers from the ladder.
            cache.probability_values(0.0, sigma);
        }
        assert_eq!(cache.stats().misses, 0);
        assert!(cache.worst_case_distance() <= h_prime + 1e-9);
    }

    #[test]
    fn cached_values_approximate_direct_values() {
        let spec = OmegaSpec::new(0.05, 300).unwrap();
        let cache = SigmaCache::build(0.2, 5.0, spec, SigmaCacheConfig::default()).unwrap();
        for &sigma in &[0.2, 0.31, 0.77, 1.9, 4.99] {
            let cached = cache.probability_values(10.0, sigma);
            let direct = direct_probability_values(10.0, sigma, &spec);
            let max_err = cached
                .iter()
                .zip(&direct)
                .map(|(c, d)| (c.rho - d.rho).abs())
                .fold(0.0f64, f64::max);
            // H′ = 0.01 keeps per-cell probability error small.
            assert!(max_err < 0.02, "σ {sigma}: max cell error {max_err}");
            // Ranges are identical — only the masses are approximated.
            for (c, d) in cached.iter().zip(&direct) {
                assert_eq!(c.lambda, d.lambda);
                assert!((c.lo - d.lo).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lookup_uses_lower_bracketing_rung() {
        let cache = SigmaCache::build(
            1.0,
            10.0,
            OmegaSpec::new(0.5, 4).unwrap(),
            SigmaCacheConfig::default(),
        )
        .unwrap();
        let ds = cache.ratio_threshold();
        // A σ between rung 2 and 3 must resolve to rung 2.
        let probe = ds.powi(2) * 1.001;
        let rung = cache.rung_for(probe).unwrap();
        assert!((rung - ds.powi(2)).abs() < 1e-9, "rung {rung}");
        assert!(rung <= probe);
        cache.probability_values(0.0, probe);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn out_of_range_sigma_counts_as_miss_but_stays_correct() {
        let spec = OmegaSpec::new(0.1, 10).unwrap();
        let cache = SigmaCache::build(1.0, 2.0, spec, SigmaCacheConfig::default()).unwrap();
        let got = cache.probability_values(0.0, 100.0);
        let want = direct_probability_values(0.0, 100.0, &spec);
        assert_eq!(got, want);
        assert_eq!(cache.stats().misses, 1);
        let below = cache.probability_values(0.0, 0.5);
        assert_eq!(below, direct_probability_values(0.0, 0.5, &spec));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn memory_constraint_caps_ladder() {
        let cache = SigmaCache::build(
            1.0,
            1000.0,
            OmegaSpec::new(0.1, 10).unwrap(),
            SigmaCacheConfig {
                distance_constraint: None,
                memory_constraint: Some(50),
            },
        )
        .unwrap();
        // Q′ = 50 allows at most 50 geometric steps (+1 base rung).
        assert!(cache.len() <= 51, "ladder has {} rungs", cache.len());
    }

    #[test]
    fn conflicting_constraints_are_rejected() {
        // Tight distance (fine ladder) + tiny memory (coarse ladder).
        let err = SigmaCache::build(
            1.0,
            10_000.0,
            OmegaSpec::new(0.1, 10).unwrap(),
            SigmaCacheConfig {
                distance_constraint: Some(0.001),
                memory_constraint: Some(5),
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::CacheConstraintsConflict { .. }));
    }

    #[test]
    fn compatible_joint_constraints_build() {
        let cache = SigmaCache::build(
            1.0,
            100.0,
            OmegaSpec::new(0.1, 10).unwrap(),
            SigmaCacheConfig {
                distance_constraint: Some(0.05),
                memory_constraint: Some(500),
            },
        )
        .unwrap();
        assert!(cache.len() <= 501);
    }

    #[test]
    fn degenerate_constant_sigma_range() {
        // min == max: one rung serves everything.
        let cache = SigmaCache::build(
            2.0,
            2.0,
            OmegaSpec::new(0.1, 10).unwrap(),
            SigmaCacheConfig::default(),
        )
        .unwrap();
        assert_eq!(cache.len(), 1);
        let vals = cache.probability_values(5.0, 2.0);
        let direct = direct_probability_values(5.0, 2.0, &OmegaSpec::new(0.1, 10).unwrap());
        for (a, b) in vals.iter().zip(&direct) {
            assert!((a.rho - b.rho).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let spec = OmegaSpec::new(0.1, 10).unwrap();
        assert!(SigmaCache::build(0.0, 1.0, spec, SigmaCacheConfig::default()).is_err());
        assert!(SigmaCache::build(2.0, 1.0, spec, SigmaCacheConfig::default()).is_err());
        assert!(SigmaCache::build(
            1.0,
            2.0,
            spec,
            SigmaCacheConfig {
                distance_constraint: Some(1.5),
                memory_constraint: None
            }
        )
        .is_err());
        assert!(SigmaCache::build(
            1.0,
            2.0,
            spec,
            SigmaCacheConfig {
                distance_constraint: None,
                memory_constraint: Some(0)
            }
        )
        .is_err());
    }

    #[test]
    fn cache_size_independent_of_view_granularity() {
        // "the number of distributions stored by the σ–cache is independent
        // from the view parameters ∆ and n" — rung *count* stays fixed as
        // the lattice gets finer (bytes per rung grow, of course).
        let coarse = SigmaCache::build(
            1.0,
            100.0,
            OmegaSpec::new(1.0, 10).unwrap(),
            SigmaCacheConfig::default(),
        )
        .unwrap();
        let fine = SigmaCache::build(
            1.0,
            100.0,
            OmegaSpec::new(0.01, 1000).unwrap(),
            SigmaCacheConfig::default(),
        )
        .unwrap();
        assert_eq!(coarse.len(), fine.len());
    }

    #[test]
    fn lookups_through_shared_reference_count_correctly() {
        // The whole point of the refactor: &SigmaCache is enough to query,
        // and the counters survive concurrent updates.
        let cache = SigmaCache::build(
            0.5,
            5.0,
            OmegaSpec::new(0.5, 4).unwrap(),
            SigmaCacheConfig::default(),
        )
        .unwrap();
        let shared: &SigmaCache = &cache;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..250 {
                        shared.probability_values(0.0, 0.5 + (i % 9) as f64 * 0.5);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.total(), 1000);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn clone_shares_ladder_but_not_counters() {
        let cache = SigmaCache::build(
            1.0,
            2.0,
            OmegaSpec::new(0.5, 4).unwrap(),
            SigmaCacheConfig::default(),
        )
        .unwrap();
        cache.probability_values(0.0, 1.5);
        let clone = cache.clone();
        assert_eq!(clone.stats(), cache.stats());
        clone.probability_values(0.0, 1.5);
        assert_eq!(clone.stats().hits, 2);
        assert_eq!(cache.stats().hits, 1);
        assert!(Arc::ptr_eq(cache.ladder(), clone.ladder()));
    }
}
