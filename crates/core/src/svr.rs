//! Successive Variance Reduction filter (paper Algorithm 2).
//!
//! Given a short value window that may contain significant anomalies, the
//! filter repeatedly finds the single point whose removal reduces the
//! sample variance the most, deletes it, and reconstructs it by
//! interpolation — stopping as soon as the window's sample variance drops
//! below the threshold `SVmax`. Running sums make each sweep O(K), so the
//! whole filter is O(K²) in the worst case (the paper's "quadratic"
//! complexity remark).
//!
//! `SVmax` is learned from clean data as the maximum windowed variance over
//! windows of length `ocmax` (Section V-B); see
//! [`tspdb_stats::descriptive::max_windowed_variance`].

use tspdb_stats::descriptive::lerp;

/// Outcome of one filter run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SvrOutcome {
    /// The cleaned values (same length as the input).
    pub values: Vec<f64>,
    /// Indices that were deleted and reconstructed, in deletion order.
    pub replaced: Vec<usize>,
    /// Sample variance of the final window.
    pub final_variance: f64,
}

/// Sample variance from running sums (`Σv`, `Σv²`, count).
fn variance_from_sums(sum: f64, sum_sq: f64, k: usize) -> f64 {
    if k < 2 {
        return 0.0;
    }
    let kf = k as f64;
    ((sum_sq - sum * sum / kf) / (kf - 1.0)).max(0.0)
}

/// Runs the successive variance reduction filter.
///
/// Points keep being removed (and linearly reconstructed from their
/// neighbours; edge points extrapolate from the two nearest interior
/// values) until the sample variance is at most `sv_max`, at most
/// `values.len() / 2` points have been replaced (a runaway guard: if half
/// the window is "erroneous" the window is a trend change, not noise), or
/// fewer than four points would remain informative.
pub(crate) fn svr_filter(values: &[f64], sv_max: f64) -> SvrOutcome {
    assert!(sv_max >= 0.0, "svr_filter: SVmax must be non-negative");
    let mut v = values.to_vec();
    let mut replaced = Vec::new();
    let k = v.len();
    if k < 4 {
        let var = tspdb_stats::descriptive::sample_variance(&v).max(0.0);
        return SvrOutcome {
            values: v,
            replaced,
            final_variance: if var.is_nan() { 0.0 } else { var },
        };
    }
    let max_deletions = k / 2;

    loop {
        let sum: f64 = v.iter().sum();
        let sum_sq: f64 = v.iter().map(|x| x * x).sum();
        let sv = variance_from_sums(sum, sum_sq, k);
        if sv <= sv_max || replaced.len() >= max_deletions {
            return SvrOutcome {
                values: v,
                replaced,
                final_variance: sv,
            };
        }

        // One O(K) sweep: variance of V \ v_k via corrected running sums.
        let mut best_var = f64::INFINITY;
        let mut best_k = 0usize;
        for (i, &x) in v.iter().enumerate() {
            let var_without = variance_from_sums(sum - x, sum_sq - x * x, k - 1);
            if var_without < best_var {
                best_var = var_without;
                best_k = i;
            }
        }

        // Delete v_k̄ and reconstruct it (Algorithm 2, steps 15-19).
        let reconstructed = if best_k > 0 && best_k + 1 < k {
            lerp(v[best_k - 1], v[best_k + 1], 0.5)
        } else if best_k == 0 {
            // Extrapolate backwards from the two nearest points.
            2.0 * v[1] - v[2]
        } else {
            // Extrapolate forwards.
            2.0 * v[k - 2] - v[k - 3]
        };
        v[best_k] = reconstructed;
        replaced.push(best_k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_stats::descriptive::sample_variance;

    #[test]
    fn clean_window_passes_through_unchanged() {
        let values: Vec<f64> = (0..20).map(|i| 10.0 + 0.01 * (i as f64).sin()).collect();
        let sv_max = sample_variance(&values) * 2.0;
        let out = svr_filter(&values, sv_max);
        assert!(out.replaced.is_empty());
        assert_eq!(out.values, values);
    }

    #[test]
    fn removes_single_spike_like_fig6() {
        // The paper's Fig. 6 scenario: smooth data with isolated spikes.
        let mut values: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        values[7] = 50.0;
        let out = svr_filter(&values, 0.5);
        assert_eq!(out.replaced, vec![7]);
        // Reconstructed by interpolating the neighbours: (0.6 + 0.8)/2.
        assert!((out.values[7] - 0.7).abs() < 1e-12);
        assert!(out.final_variance <= 0.5);
    }

    #[test]
    fn removes_two_spikes_in_variance_order() {
        let mut values: Vec<f64> = (0..24).map(|i| (i as f64 * 0.2).sin()).collect();
        values[5] = 40.0; // bigger spike — must go first
        values[15] = -20.0;
        let out = svr_filter(&values, 0.6);
        assert_eq!(out.replaced, vec![5, 15]);
        assert!(out.values[5].abs() < 2.0);
        assert!(out.values[15].abs() < 2.0);
    }

    #[test]
    fn edge_spikes_are_extrapolated() {
        let mut values: Vec<f64> = (0..12).map(|i| 1.0 + i as f64).collect();
        values[0] = -100.0;
        let out = svr_filter(&values, 2.0);
        assert!(out.replaced.contains(&0));
        // Linear data ⇒ extrapolation reproduces the line: v[0] = 2·v[1] − v[2] = 1.
        assert!((out.values[0] - 1.0).abs() < 1e-9, "got {}", out.values[0]);

        let mut tail: Vec<f64> = (0..12).map(|i| 1.0 + i as f64).collect();
        let last = tail.len() - 1;
        tail[last] = 500.0;
        let out = svr_filter(&tail, 2.0);
        assert!(out.replaced.contains(&last));
        assert!(
            (out.values[last] - 12.0).abs() < 1e-9,
            "got {}",
            out.values[last]
        );
    }

    #[test]
    fn respects_deletion_budget() {
        // All values wildly dispersed with SVmax ≈ 0: the guard must stop
        // at K/2 replacements instead of flattening everything.
        let values: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { 100.0 } else { -100.0 })
            .collect();
        let out = svr_filter(&values, 1e-9);
        assert!(out.replaced.len() <= 8);
    }

    #[test]
    fn tiny_windows_are_returned_untouched() {
        let out = svr_filter(&[5.0, -5.0, 9.0], 0.0);
        assert!(out.replaced.is_empty());
        assert_eq!(out.values, vec![5.0, -5.0, 9.0]);
    }

    #[test]
    fn final_variance_is_consistent() {
        let mut values: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).cos()).collect();
        values[10] = 30.0;
        let out = svr_filter(&values, 0.6);
        let recomputed = sample_variance(&out.values);
        assert!((out.final_variance - recomputed).abs() < 1e-9);
    }

    #[test]
    fn variance_never_increases_across_iterations() {
        // Deleting the argmax-reduction point then interpolating keeps the
        // variance monotonically non-increasing in practice; verify on a
        // multi-spike window by checking the end state is below the start.
        let base: Vec<f64> = (0..40).map(|i| (i as f64 * 0.1).sin() * 2.0).collect();
        let clean_var = sample_variance(&base);
        let mut values = base;
        values[3] = 60.0;
        values[21] = -45.0;
        values[33] = 70.0;
        let before = sample_variance(&values);
        let out = svr_filter(&values, clean_var * 1.2);
        assert!(out.final_variance < before);
        assert_eq!(out.replaced.len(), 3);
    }
}
