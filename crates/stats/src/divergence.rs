//! Distances between probability distributions.
//!
//! The σ-cache's correctness argument (paper Section VI-B, Theorem 1) rests
//! on the Hellinger distance between two Gaussians with equal means, eq. 10:
//!
//! ```text
//! H²[P_t, P_t'] = 1 − sqrt(2 σ_t σ_t' / (σ_t² + σ_t'²))
//! ```
//!
//! This module provides that quantity and the ratio bounds built on it; the
//! general unequal-mean form is kept as the tests' reference.

/// Squared Hellinger distance between two zero-mean (or mean-shifted, per
/// the paper's argument) Gaussians with standard deviations `s1`, `s2`
/// — exactly the paper's eq. (10).
///
/// Result lies in `[0, 1]`; 0 iff `s1 == s2`.
pub fn hellinger_sq_equal_mean(s1: f64, s2: f64) -> f64 {
    assert!(s1 > 0.0 && s2 > 0.0, "hellinger: stds must be positive");
    (1.0 - (2.0 * s1 * s2 / (s1 * s1 + s2 * s2)).sqrt()).max(0.0)
}

/// Hellinger distance (not squared) for the equal-mean Gaussian case.
pub fn hellinger_equal_mean(s1: f64, s2: f64) -> f64 {
    hellinger_sq_equal_mean(s1, s2).sqrt()
}

/// Squared Hellinger distance between arbitrary Gaussians
/// `N(m1, s1²)` and `N(m2, s2²)`:
///
/// ```text
/// H² = 1 − sqrt(2 s1 s2 / (s1² + s2²)) · exp(−(m1−m2)² / (4 (s1² + s2²)))
/// ```
///
/// Reduces to [`hellinger_sq_equal_mean`] when `m1 == m2`, which is what the
/// paper's mean-shift argument (Fig. 8) exploits: `ρ_λ` is invariant under a
/// joint shift of the distribution and the Ω lattice.
#[cfg(test)]
pub(crate) fn hellinger_sq_normal(m1: f64, s1: f64, m2: f64, s2: f64) -> f64 {
    assert!(s1 > 0.0 && s2 > 0.0, "hellinger: stds must be positive");
    let v = s1 * s1 + s2 * s2;
    let bc = (2.0 * s1 * s2 / v).sqrt() * (-(m1 - m2) * (m1 - m2) / (4.0 * v)).exp();
    (1.0 - bc).max(0.0)
}

/// The ratio-threshold bound of the paper's Theorem 1: given a distance
/// constraint `h` (a Hellinger distance, in `[0, 1)`), returns the largest
/// admissible ratio `d_s = σ_t' / σ_t` such that approximating one Gaussian
/// CDF by the other stays within `h`:
///
/// ```text
/// d_s ≤ (2 + sqrt(4 − 4 (1 − h²)⁴)) / (2 (1 − h²)²)        (eq. 11)
/// ```
pub fn ratio_threshold_for_distance(h: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&h),
        "ratio_threshold_for_distance: h must be in [0,1), got {h}"
    );
    let c = 1.0 - h * h; // (1 − H'²)
    let c2 = c * c;
    (2.0 + (4.0 - 4.0 * c2 * c2).sqrt()) / (2.0 * c2)
}

/// The memory-constraint bound of the paper's Theorem 2: with at most `q`
/// distributions allowed and overall spread `d_max = max(σ)/min(σ)`, the
/// ratio threshold must satisfy `d_s ≥ d_max^{1/q}` (eq. 14). Returns that
/// minimal admissible `d_s`.
pub fn ratio_threshold_for_memory(d_max: f64, q: usize) -> f64 {
    assert!(
        d_max >= 1.0,
        "ratio_threshold_for_memory: spread must be ≥ 1"
    );
    assert!(q > 0, "ratio_threshold_for_memory: need at least one slot");
    d_max.powf(1.0 / q as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hellinger_zero_iff_equal() {
        assert_eq!(hellinger_sq_equal_mean(2.0, 2.0), 0.0);
        assert!(hellinger_sq_equal_mean(1.0, 2.0) > 0.0);
    }

    #[test]
    fn hellinger_is_symmetric_and_bounded() {
        for &(a, b) in &[(0.5, 3.0), (1.0, 1.5), (0.01, 100.0)] {
            let h1 = hellinger_sq_equal_mean(a, b);
            let h2 = hellinger_sq_equal_mean(b, a);
            assert!((h1 - h2).abs() < 1e-15);
            assert!((0.0..=1.0).contains(&h1));
        }
    }

    #[test]
    fn hellinger_monotone_in_ratio() {
        // For fixed s1, H grows as s2/s1 moves away from 1.
        let mut prev = 0.0;
        for i in 1..=20 {
            let ratio = 1.0 + i as f64 * 0.25;
            let h = hellinger_sq_equal_mean(1.0, ratio);
            assert!(h > prev, "H² must increase with the σ ratio");
            prev = h;
        }
    }

    #[test]
    fn general_form_reduces_to_equal_mean_case() {
        let h_g = hellinger_sq_normal(7.0, 1.2, 7.0, 3.4);
        let h_e = hellinger_sq_equal_mean(1.2, 3.4);
        assert!((h_g - h_e).abs() < 1e-14);
    }

    #[test]
    fn mean_separation_increases_distance() {
        let base = hellinger_sq_normal(0.0, 1.0, 0.0, 1.0);
        let sep = hellinger_sq_normal(0.0, 1.0, 5.0, 1.0);
        assert_eq!(base, 0.0);
        assert!(sep > 0.9, "5σ separation should be nearly maximal: {sep}");
    }

    #[test]
    fn theorem1_bound_is_tight() {
        // Choosing d_s at the bound must give Hellinger distance exactly H'.
        for &h in &[0.001, 0.01, 0.05, 0.2, 0.5] {
            let ds = ratio_threshold_for_distance(h);
            assert!(ds > 1.0, "d_s must exceed 1 for positive H'");
            let achieved = hellinger_equal_mean(1.0, ds);
            assert!(
                (achieved - h).abs() < 1e-9,
                "H' = {h}: d_s = {ds} achieves {achieved}"
            );
        }
    }

    #[test]
    fn theorem1_monotone_in_h() {
        let mut prev = 1.0;
        for i in 1..50 {
            let h = i as f64 * 0.01;
            let ds = ratio_threshold_for_distance(h);
            assert!(ds > prev, "d_s must grow with the allowed distance");
            prev = ds;
        }
    }

    #[test]
    fn theorem2_bound_caps_ladder_size() {
        // With ratio d_s = d_max^{1/q}, exactly q rungs cover the spread.
        let d_max = 16000.0;
        let q = 100usize;
        let ds = ratio_threshold_for_memory(d_max, q);
        let needed = d_max.ln() / ds.ln();
        assert!(
            (needed - q as f64).abs() < 1e-6,
            "ladder needs {needed} rungs with q = {q}"
        );
        // A larger d_s (coarser ladder) needs fewer rungs — memory holds.
        let coarser = ds * 1.5;
        assert!(d_max.ln() / coarser.ln() < q as f64);
    }

    #[test]
    fn paper_parameterisation_h001() {
        // The experiments use H' = 0.01; eq. 11 then gives d_s ≈ 1.0202,
        // which with Ds = 2000..16000 yields ladders of ≈ 380..480 rungs —
        // the scale behind Fig. 14(b).
        let ds = ratio_threshold_for_distance(0.01);
        assert!((ds - 1.0202).abs() < 1e-3, "d_s = {ds}");
        let rungs_lo = (2000.0f64.ln() / ds.ln()).ceil();
        let rungs_hi = (16000.0f64.ln() / ds.ln()).ceil();
        assert!((350.0..=420.0).contains(&rungs_lo), "{rungs_lo}");
        assert!((450.0..=510.0).contains(&rungs_hi), "{rungs_hi}");
    }
}
