//! Descriptive statistics: moments, autocovariance, rolling statistics and
//! histograms.
//!
//! These are the building blocks for the paper's variable-thresholding
//! metric (sample variance over a window), the SVmax learning procedure of
//! C-GARCH (maximum windowed dispersion of clean data), Yule-Walker ARMA
//! estimation (autocovariances) and the density-distance quality measure
//! (histogram-approximated empirical CDF, Section II-B).

/// Arithmetic mean of a slice. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (denominator `n − 1`). Returns `NaN` if fewer
/// than two observations are supplied.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation (square root of [`sample_variance`]).
pub fn sample_std(xs: &[f64]) -> f64 {
    sample_variance(xs).sqrt()
}

/// Sample autocovariance at the given lag, normalised by `n` (the standard
/// biased estimator used by Yule-Walker).
///
/// Returns `NaN` if `lag >= xs.len()`.
pub(crate) fn autocovariance(xs: &[f64], lag: usize) -> f64 {
    let n = xs.len();
    if lag >= n || n == 0 {
        return f64::NAN;
    }
    let m = mean(xs);
    let mut acc = 0.0;
    for i in 0..n - lag {
        acc += (xs[i] - m) * (xs[i + lag] - m);
    }
    acc / n as f64
}

/// Sample autocorrelations for lags `0..=max_lag` (lag 0 is always 1 for a
/// non-constant series).
pub fn autocorrelations(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let c0 = autocovariance(xs, 0);
    (0..=max_lag)
        .map(|k| {
            if c0 > 0.0 {
                autocovariance(xs, k) / c0
            } else {
                f64::NAN
            }
        })
        .collect()
}

/// Rolling sample standard deviation with the given window length; output
/// index `i` covers `xs[i .. i + window]`. Returns an empty vector when the
/// series is shorter than the window.
pub fn rolling_std(xs: &[f64], window: usize) -> Vec<f64> {
    if window < 2 || xs.len() < window {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(xs.len() - window + 1);
    // Maintain running sums for O(n) total cost.
    let mut s: f64 = xs[..window].iter().sum();
    let mut s2: f64 = xs[..window].iter().map(|x| x * x).sum();
    let w = window as f64;
    let var = |s: f64, s2: f64| ((s2 - s * s / w) / (w - 1.0)).max(0.0);
    out.push(var(s, s2).sqrt());
    for i in window..xs.len() {
        s += xs[i] - xs[i - window];
        s2 += xs[i] * xs[i] - xs[i - window] * xs[i - window];
        out.push(var(s, s2).sqrt());
    }
    out
}

/// Maximum sample variance over all sliding windows of the given length —
/// the paper's SVmax learning rule for the successive variance reduction
/// filter ("using a sample of size T of clean data, we compute SVmax as the
/// maximum sample variance we observe in all sliding windows of size
/// ocmax", Section V-B).
pub fn max_windowed_variance(xs: &[f64], window: usize) -> f64 {
    if window < 2 || xs.len() < window {
        return f64::NAN;
    }
    let mut s: f64 = xs[..window].iter().sum();
    let mut s2: f64 = xs[..window].iter().map(|x| x * x).sum();
    let w = window as f64;
    let var = |s: f64, s2: f64| ((s2 - s * s / w) / (w - 1.0)).max(0.0);
    let mut best = var(s, s2);
    for i in window..xs.len() {
        s += xs[i] - xs[i - window];
        s2 += xs[i] * xs[i] - xs[i - window] * xs[i - window];
        best = best.max(var(s, s2));
    }
    best
}

/// Fixed-width histogram over `[lo, hi)` with `bins` equal-width cells.
///
/// Out-of-range observations are clamped into the first/last cell so that
/// the histogram always accounts for every pushed value (important for the
/// probability-integral-transform values that can hit exactly 0 or 1).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    ///
    /// # Panics
    /// Panics when `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "Histogram: lo must be below hi");
        assert!(bins > 0, "Histogram: need at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation (values outside `[lo, hi)` clamp to edge cells).
    pub fn push(&mut self, x: f64) {
        let b = self.bin_index(x);
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Index of the cell that would receive `x`.
    pub(crate) fn bin_index(&self, x: f64) -> usize {
        let bins = self.counts.len();
        if x <= self.lo {
            return 0;
        }
        if x >= self.hi {
            return bins - 1;
        }
        let frac = (x - self.lo) / (self.hi - self.lo);
        ((frac * bins as f64) as usize).min(bins - 1)
    }

    /// Right edge of cell `b`.
    pub fn right_edge(&self, b: usize) -> f64 {
        self.lo + (self.hi - self.lo) * (b + 1) as f64 / self.counts.len() as f64
    }

    /// Empirical CDF evaluated at every cell right-edge: entry `b` is the
    /// fraction of observations falling in cells `0..=b`.
    ///
    /// This is the histogram approximation `Q_Z(z)` of the paper's density
    /// distance (Section II-B).
    pub fn cdf(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut acc = 0u64;
        for &c in &self.counts {
            acc += c;
            out.push(if self.total == 0 {
                0.0
            } else {
                acc as f64 / self.total as f64
            });
        }
        out
    }
}

/// Linear interpolation `lerp(a, b, t)` used by the successive variance
/// reduction filter when reconstructing deleted points.
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_yield_nan() {
        assert!(mean(&[]).is_nan());
        assert!(sample_variance(&[1.0]).is_nan());
    }

    #[test]
    fn autocovariance_of_constant_is_zero() {
        let xs = [3.0; 50];
        assert!(autocovariance(&xs, 0).abs() < 1e-12);
        assert!(autocovariance(&xs, 3).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let ac = autocorrelations(&xs, 5);
        assert!((ac[0] - 1.0).abs() < 1e-12);
        for &r in &ac[1..] {
            assert!(r.abs() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn ar1_autocorrelation_decays_geometrically() {
        // x_t = 0.8 x_{t-1} + e_t has ρ(k) ≈ 0.8^k.
        let mut x = 0.0;
        let mut state = 123456789u64;
        let mut next = || {
            // xorshift for a deterministic pseudo-noise stream.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let xs: Vec<f64> = (0..20000)
            .map(|_| {
                x = 0.8 * x + next();
                x
            })
            .collect();
        let ac = autocorrelations(&xs, 3);
        assert!((ac[1] - 0.8).abs() < 0.05, "lag-1 acf {} ≉ 0.8", ac[1]);
        assert!((ac[2] - 0.64).abs() < 0.07, "lag-2 acf {} ≉ 0.64", ac[2]);
    }

    #[test]
    fn rolling_std_matches_direct_computation() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * (i as f64)).collect();
        let w = 7;
        let rolled = rolling_std(&xs, w);
        assert_eq!(rolled.len(), xs.len() - w + 1);
        for (i, &r) in rolled.iter().enumerate() {
            let direct = sample_std(&xs[i..i + w]);
            assert!((r - direct).abs() < 1e-9, "window {i}: {r} vs {direct}");
        }
    }

    #[test]
    fn max_windowed_variance_finds_burst() {
        let mut xs = vec![0.0; 100];
        // Plant a high-dispersion burst in the middle.
        for (i, v) in xs.iter_mut().enumerate().skip(50).take(8) {
            *v = if i % 2 == 0 { 10.0 } else { -10.0 };
        }
        let sv = max_windowed_variance(&xs, 8);
        assert!(sv > 50.0, "burst variance {sv} should dominate");
        assert!((max_windowed_variance(&vec![1.0; 30], 5)).abs() < 1e-12);
    }

    #[test]
    fn histogram_cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..1000 {
            h.push((i as f64 + 0.5) / 1000.0);
        }
        let cdf = h.cdf();
        assert_eq!(cdf.len(), 10);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((cdf[9] - 1.0).abs() < 1e-12);
        // Uniform data ⇒ CDF close to the diagonal.
        for (b, &c) in cdf.iter().enumerate() {
            let ideal = (b + 1) as f64 / 10.0;
            assert!((c - ideal).abs() < 0.02);
        }
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-5.0);
        h.push(7.0);
        h.push(1.0); // right edge clamps into last cell
                     // One value in the first cell, two in the last, none between.
        assert_eq!(h.cdf(), vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 1.0]);
    }
}
