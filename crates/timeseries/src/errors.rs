//! Erroneous-value injection.
//!
//! Mirrors the paper's evaluation procedure for C-GARCH (Section VII-B):
//! "The insertion procedure inserts a pre-specified number of very high (or
//! very low) values uniformly at random in the data." Injection records the
//! ground-truth positions so detection rates can be scored (Fig. 13a).

use crate::series::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tspdb_stats::descriptive::sample_std;

/// Result of injecting synthetic erroneous values into a series.
#[derive(Debug, Clone)]
pub struct Injection {
    /// The corrupted series.
    pub series: TimeSeries,
    /// Sorted positional indices that were overwritten.
    pub positions: Vec<usize>,
    /// The original (clean) values at those positions.
    pub originals: Vec<f64>,
}

impl Injection {
    /// Number of injected errors.
    pub fn count(&self) -> usize {
        self.positions.len()
    }

    /// Fraction of injected positions present in `detected` — the paper's
    /// "percentage of total erroneous values detected" (Fig. 13a). The
    /// `detected` indices need not be sorted.
    pub fn capture_rate(&self, detected: &[usize]) -> f64 {
        if self.positions.is_empty() {
            return f64::NAN;
        }
        let det: BTreeSet<usize> = detected.iter().copied().collect();
        let hit = self.positions.iter().filter(|p| det.contains(p)).count();
        hit as f64 / self.positions.len() as f64
    }
}

/// Configuration for spike injection.
#[derive(Debug, Clone, Copy)]
pub struct SpikeConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of spikes to insert.
    pub count: usize,
    /// Spike magnitude in multiples of the series' global standard
    /// deviation; the actual offset is drawn uniformly from
    /// `[magnitude_lo, magnitude_hi] · σ_global` with random sign.
    pub magnitude_lo: f64,
    /// Upper bound of the magnitude band (see `magnitude_lo`).
    pub magnitude_hi: f64,
    /// Positions below this index are never corrupted (lets experiments
    /// keep a clean warm-up prefix for window initialisation).
    pub protect_prefix: usize,
}

impl Default for SpikeConfig {
    fn default() -> Self {
        SpikeConfig {
            seed: 0xE44,
            count: 25,
            magnitude_lo: 15.0,
            magnitude_hi: 40.0,
            protect_prefix: 0,
        }
    }
}

/// Injects `config.count` spikes uniformly at random (without replacement)
/// into a copy of `series`.
///
/// # Panics
/// Panics when more spikes are requested than eligible positions exist.
pub fn inject_spikes(series: &TimeSeries, config: &SpikeConfig) -> Injection {
    let n = series.len();
    assert!(
        config.protect_prefix < n && config.count <= n - config.protect_prefix,
        "inject_spikes: {} spikes do not fit in {} eligible positions",
        config.count,
        n.saturating_sub(config.protect_prefix)
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sigma = sample_std(series.values()).max(1e-9);

    // Sample distinct positions uniformly at random.
    let mut chosen = BTreeSet::new();
    while chosen.len() < config.count {
        chosen.insert(rng.gen_range(config.protect_prefix..n));
    }
    let positions: Vec<usize> = chosen.into_iter().collect();

    let mut corrupted = series.clone();
    let mut originals = Vec::with_capacity(positions.len());
    for &p in &positions {
        let offset = rng.gen_range(config.magnitude_lo..=config.magnitude_hi) * sigma;
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        originals.push(corrupted.values()[p]);
        corrupted.values_mut()[p] += sign * offset;
    }
    Injection {
        series: corrupted,
        positions,
        originals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::TemperatureGenerator;

    fn base() -> TimeSeries {
        TemperatureGenerator::default().generate(2000)
    }

    #[test]
    fn injects_requested_count_at_distinct_positions() {
        let s = base();
        let inj = inject_spikes(
            &s,
            &SpikeConfig {
                count: 50,
                ..Default::default()
            },
        );
        assert_eq!(inj.count(), 50);
        let mut sorted = inj.positions.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 50, "positions must be distinct");
        assert!(inj.positions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn spikes_are_large_outliers() {
        let s = base();
        let sigma = sample_std(s.values());
        let inj = inject_spikes(
            &s,
            &SpikeConfig {
                count: 20,
                ..Default::default()
            },
        );
        for (&p, &orig) in inj.positions.iter().zip(&inj.originals) {
            let delta = (inj.series.values()[p] - orig).abs();
            assert!(
                delta >= 14.0 * sigma,
                "spike at {p} too small: {delta} vs σ {sigma}"
            );
            assert_eq!(orig, s.values()[p]);
        }
    }

    #[test]
    fn non_injected_positions_untouched() {
        let s = base();
        let inj = inject_spikes(
            &s,
            &SpikeConfig {
                count: 10,
                ..Default::default()
            },
        );
        for i in 0..s.len() {
            if inj.positions.binary_search(&i).is_err() {
                assert_eq!(s.values()[i], inj.series.values()[i]);
            }
        }
    }

    #[test]
    fn protect_prefix_is_respected() {
        let s = base();
        let inj = inject_spikes(
            &s,
            &SpikeConfig {
                count: 100,
                protect_prefix: 500,
                ..Default::default()
            },
        );
        assert!(inj.positions.iter().all(|&p| p >= 500));
    }

    #[test]
    fn capture_rate_scores_detections() {
        let s = base();
        let inj = inject_spikes(
            &s,
            &SpikeConfig {
                count: 4,
                ..Default::default()
            },
        );
        let all = inj.positions.clone();
        assert_eq!(inj.capture_rate(&all), 1.0);
        assert_eq!(inj.capture_rate(&all[..2]), 0.5);
        assert_eq!(inj.capture_rate(&[]), 0.0);
        // False positives don't inflate the rate.
        let mut with_fp = all.clone();
        with_fp.push(1);
        assert_eq!(inj.capture_rate(&with_fp), 1.0);
    }

    #[test]
    fn injection_is_reproducible() {
        let s = base();
        let c = SpikeConfig::default();
        let a = inject_spikes(&s, &c);
        let b = inject_spikes(&s, &c);
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.series, b.series);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn rejects_overfull_injection() {
        let s = TimeSeries::regular("x", 0, 1, vec![0.0; 10]);
        inject_spikes(
            &s,
            &SpikeConfig {
                count: 11,
                ..Default::default()
            },
        );
    }
}
