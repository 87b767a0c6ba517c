//! ARCH-effect hypothesis test (paper Section VII-D).
//!
//! Before trusting a GARCH-family metric on a dataset, the paper verifies
//! that the data actually exhibits time-varying volatility: the squared
//! ARMA residuals `a²_i` are regressed on their own `m` lags (eq. 15)
//!
//! ```text
//! a²_i = ξ_0 + ξ_1 a²_{i−1} + … + ξ_m a²_{i−m} + e_i
//! ```
//!
//! and the statistic (eq. 16)
//!
//! ```text
//! Φ(m) = ((γ_0 − γ_1)/m) / (γ_1 / (K − 2m − 1))
//! ```
//!
//! is compared against the upper-α chi-square critical value `χ²_m(α)`;
//! `Φ(m) > χ²_m(α)` rejects "the residuals are i.i.d." and establishes
//! volatility regimes. Here `γ_0` is the total sum of squares of `a²`,
//! `γ_1` the residual sum of squares of the regression, and `K` the number
//! of squared-residual observations entering the test.

use tspdb_stats::error::StatsError;
use tspdb_stats::regression::{design_with_intercept, ols};

/// The ARCH-effect statistic `Φ(m)` of eq. 16 over a residual series with
/// `m` lags, clamped at zero. The null hypothesis of i.i.d. errors is
/// rejected when it exceeds the critical value `χ²_m(α)`.
///
/// Requires enough residuals for the denominator degrees of freedom
/// `K − 2m − 1` to be positive.
fn arch_statistic(residuals: &[f64], m: usize) -> Result<f64, StatsError> {
    assert!(m >= 1, "arch_statistic: need at least one lag");
    let k_total = residuals.len();
    // Need K − 2m − 1 > 0 with K the count of squared residuals, and at
    // least m + 2 regression rows.
    if k_total < 3 * m + 4 {
        return Err(StatsError::InsufficientData {
            needed: 3 * m + 4,
            got: k_total,
        });
    }
    let sq: Vec<f64> = residuals.iter().map(|a| a * a).collect();

    // Regression rows: i = m .. K−1.
    let y: Vec<f64> = sq[m..].to_vec();
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(m);
    for j in 1..=m {
        cols.push((m..k_total).map(|i| sq[i - j]).collect());
    }
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let design = design_with_intercept(&col_refs);
    let fit = ols(&design, &y)?;

    // γ0: total sum of squares of a² around its mean; γ1: RSS.
    let gamma0 = fit.tss;
    let gamma1 = fit.rss;
    if !(gamma1 > 0.0) {
        return Err(StatsError::DegenerateInput(
            "ARCH test: regression fits squared residuals exactly".into(),
        ));
    }
    let k = sq.len() as f64;
    let statistic = ((gamma0 - gamma1) / m as f64) / (gamma1 / (k - 2.0 * m as f64 - 1.0));
    Ok(statistic.max(0.0))
}

/// Averages the `Φ(m)` statistic over every sliding window of length `h`
/// (stepping by `step` indices) — the aggregation the paper uses for
/// Fig. 15 ("we compute the value of Φ(m) … on 1800 windows containing 180
/// samples each … we reject the null hypothesis if the *average* value of
/// Φ(m) over all windows is greater than χ²_m(α)").
///
/// Windows where the test fails (degenerate regression) are skipped.
/// Returns the mean statistic and the number of windows that contributed.
pub fn mean_statistic_over_windows(
    residuals: &[f64],
    h: usize,
    step: usize,
    m: usize,
) -> Result<(f64, usize), StatsError> {
    if residuals.len() < h {
        return Err(StatsError::InsufficientData {
            needed: h,
            got: residuals.len(),
        });
    }
    assert!(step >= 1, "mean_statistic_over_windows: step must be ≥ 1");
    let mut acc = 0.0;
    let mut count = 0usize;
    let mut start = 0;
    while start + h <= residuals.len() {
        if let Ok(phi) = arch_statistic(&residuals[start..start + h], m) {
            acc += phi;
            count += 1;
        }
        start += step;
    }
    if count == 0 {
        return Err(StatsError::DegenerateInput(
            "ARCH test failed on every window".into(),
        ));
    }
    Ok((acc / count as f64, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_stats::special::chi_square_quantile;
    use tspdb_timeseries::generate::{ar1_series, ArmaGarchGenerator};

    fn garch_innovations(n: usize, seed: u64) -> Vec<f64> {
        ArmaGarchGenerator {
            seed,
            c: 0.0,
            phi: 0.0,
            theta: 0.0,
            alpha0: 0.05,
            alpha1: 0.3,
            beta1: 0.6,
        }
        .generate(n)
        .values()
        .to_vec()
    }

    #[test]
    fn rejects_on_garch_innovations() {
        let a = garch_innovations(4000, 21);
        for m in 1..=4 {
            let phi = arch_statistic(&a, m).unwrap();
            let critical = chi_square_quantile(0.95, m as f64);
            assert!(phi > critical, "m = {m}: Φ = {phi} ≤ critical {critical}");
        }
    }

    #[test]
    fn accepts_on_iid_noise() {
        // Homoskedastic innovations: Φ should land below the critical value.
        let a = ArmaGarchGenerator {
            seed: 5,
            c: 0.0,
            phi: 0.0,
            theta: 0.0,
            alpha0: 1.0,
            alpha1: 0.0,
            beta1: 0.0,
        }
        .generate(4000)
        .values()
        .to_vec();
        let phi = arch_statistic(&a, 3).unwrap();
        let critical = chi_square_quantile(0.95, 3.0);
        assert!(phi <= critical, "false rejection: Φ = {phi} > {critical}");
    }

    #[test]
    fn ar1_levels_are_not_arch() {
        // Raw AR(1) *residuals* (after removing the AR structure) are iid.
        let s = ar1_series(77, 0.8, 1.0, 5000);
        let resid: Vec<f64> = s.values().windows(2).map(|w| w[1] - 0.8 * w[0]).collect();
        let phi = arch_statistic(&resid, 2).unwrap();
        let critical = chi_square_quantile(0.95, 2.0);
        assert!(phi <= critical, "Φ = {phi} vs {critical}");
    }

    #[test]
    fn windowed_mean_statistic_separates_regimes() {
        let garch = garch_innovations(6000, 9);
        let (phi_garch, n1) = mean_statistic_over_windows(&garch, 180, 10, 2).unwrap();
        let iid = ar1_series(13, 0.0, 1.0, 6000).values().to_vec();
        let (phi_iid, n2) = mean_statistic_over_windows(&iid, 180, 10, 2).unwrap();
        assert!(n1 > 500 && n2 > 500);
        assert!(
            phi_garch > phi_iid * 1.5,
            "windowed Φ does not separate: garch {phi_garch} vs iid {phi_iid}"
        );
    }

    #[test]
    fn insufficient_data_is_rejected() {
        assert!(matches!(
            arch_statistic(&[1.0; 6], 2),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn statistic_is_never_negative() {
        let a = ar1_series(3, 0.0, 1.0, 200).values().to_vec();
        assert!(arch_statistic(&a, 4).unwrap() >= 0.0);
    }
}
