//! Ordinary least squares regression.
//!
//! Two of the paper's procedures are regressions in disguise: the second
//! stage of Hannan–Rissanen ARMA estimation regresses the series on lagged
//! values and lagged residuals, and the ARCH-effect test (eq. 15) regresses
//! squared residuals on their own lags. Both designs are small (≤ ~20
//! columns), so solving the normal equations with a Cholesky factorisation —
//! falling back to a tiny ridge jitter when the design is collinear — is
//! accurate and fast.

use crate::error::StatsError;
use crate::linalg::{solve_spd, Matrix};

/// Result of an ordinary least squares fit.
#[derive(Debug, Clone)]
pub struct OlsFit {
    /// Estimated coefficients, one per design column.
    pub beta: Vec<f64>,
    /// Residuals `y − X β̂`.
    pub residuals: Vec<f64>,
    /// Residual sum of squares.
    pub rss: f64,
    /// Total sum of squares of the centred response.
    pub tss: f64,
}

/// Fits `y ≈ X β` by least squares. `x` is the `n×k` design matrix.
///
/// When the Gram matrix is numerically singular, a ridge jitter
/// (`λ = 1e-10 · tr(XᵀX)/k`) is added and the solve retried, growing λ by
/// 100× up to a bounded number of attempts; this handles the collinear
/// designs that occur when a sensor flat-lines inside a window.
pub fn ols(x: &Matrix, y: &[f64]) -> Result<OlsFit, StatsError> {
    let n = x.rows();
    let k = x.cols();
    if n != y.len() {
        return Err(StatsError::DimensionMismatch {
            expected: n,
            got: y.len(),
        });
    }
    if n < k || k == 0 {
        return Err(StatsError::InsufficientData { needed: k, got: n });
    }
    let mut gram = x.gram();
    let xty = x.tr_matvec(y);
    let trace: f64 = (0..k).map(|i| gram[(i, i)]).sum();
    let mut lambda = 0.0;
    let mut beta = None;
    for attempt in 0..6 {
        if attempt > 0 {
            let bump = if lambda == 0.0 {
                1e-10 * (trace / k as f64).max(1e-300)
            } else {
                lambda * 99.0 // total becomes 100× previous
            };
            for i in 0..k {
                gram[(i, i)] += bump;
            }
            lambda += bump;
        }
        match solve_spd(&gram, &xty) {
            Ok(b) => {
                beta = Some(b);
                break;
            }
            Err(_) => continue,
        }
    }
    let beta = beta.ok_or(StatsError::NotPositiveDefinite)?;
    let fitted = x.matvec(&beta);
    let residuals: Vec<f64> = y.iter().zip(&fitted).map(|(yi, fi)| yi - fi).collect();
    let rss: f64 = residuals.iter().map(|r| r * r).sum();
    let y_mean = crate::descriptive::mean(y);
    let tss: f64 = y.iter().map(|yi| (yi - y_mean) * (yi - y_mean)).sum();
    Ok(OlsFit {
        beta,
        residuals,
        rss,
        tss,
    })
}

/// Convenience builder: constructs a design matrix from columns.
///
/// # Panics
/// Panics if the columns have unequal lengths or no columns are supplied.
pub(crate) fn design_from_columns(cols: &[&[f64]]) -> Matrix {
    assert!(
        !cols.is_empty(),
        "design_from_columns: need at least one column"
    );
    let n = cols[0].len();
    assert!(
        cols.iter().all(|c| c.len() == n),
        "design_from_columns: ragged columns"
    );
    let k = cols.len();
    let mut data = vec![0.0; n * k];
    for (j, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            data[i * k + j] = v;
        }
    }
    Matrix::from_vec(n, k, data)
}

/// Builds a design with a leading intercept column followed by the given
/// columns.
pub fn design_with_intercept(cols: &[&[f64]]) -> Matrix {
    let n = if cols.is_empty() { 0 } else { cols[0].len() };
    let ones = vec![1.0; n];
    let mut all: Vec<&[f64]> = Vec::with_capacity(cols.len() + 1);
    all.push(&ones);
    all.extend_from_slice(cols);
    design_from_columns(&all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relationship() {
        // y = 3 + 2 x, no noise.
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let design = design_with_intercept(&[&xs]);
        let fit = ols(&design, &ys).unwrap();
        assert!((fit.beta[0] - 3.0).abs() < 1e-10);
        assert!((fit.beta[1] - 2.0).abs() < 1e-10);
        assert!(fit.rss < 1e-18);
    }

    #[test]
    fn recovers_two_predictor_relationship_with_noise() {
        let mut state = 42u64;
        let mut noise = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64 - 0.5) * 0.01
        };
        let x1: Vec<f64> = (0..400).map(|i| (i as f64 * 0.05).sin()).collect();
        let x2: Vec<f64> = (0..400).map(|i| (i as f64 * 0.013).cos()).collect();
        let ys: Vec<f64> = x1
            .iter()
            .zip(&x2)
            .map(|(a, b)| 1.5 - 0.7 * a + 0.4 * b + noise())
            .collect();
        let design = design_with_intercept(&[&x1, &x2]);
        let fit = ols(&design, &ys).unwrap();
        assert!((fit.beta[0] - 1.5).abs() < 0.01);
        assert!((fit.beta[1] + 0.7).abs() < 0.01);
        assert!((fit.beta[2] - 0.4).abs() < 0.01);
    }

    #[test]
    fn residuals_are_orthogonal_to_design() {
        let x1: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        let ys: Vec<f64> = (0..100).map(|i| (i as f64 * 0.31).sin()).collect();
        let design = design_with_intercept(&[&x1]);
        let fit = ols(&design, &ys).unwrap();
        // Xᵀ r must be ≈ 0 (normal equations).
        let xtr = design.tr_matvec(&fit.residuals);
        for v in xtr {
            assert!(v.abs() < 1e-8, "residual not orthogonal: {v}");
        }
    }

    #[test]
    fn collinear_design_still_solves_via_ridge() {
        // Two identical columns: singular Gram matrix.
        let x: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        let design = design_with_intercept(&[&x, &x]);
        let fit = ols(&design, &ys).unwrap();
        // The split between the duplicated columns is arbitrary but the fit
        // itself must still be near-perfect.
        assert!(fit.rss < 1e-6, "rss = {}", fit.rss);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let design = design_with_intercept(&[&[1.0, 2.0, 3.0][..]]);
        assert!(matches!(
            ols(&design, &[1.0, 2.0]),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn underdetermined_system_is_rejected() {
        let design = design_from_columns(&[&[1.0][..], &[2.0][..]]);
        assert!(matches!(
            ols(&design, &[1.0]),
            Err(StatsError::InsufficientData { .. })
        ));
    }
}
