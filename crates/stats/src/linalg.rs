//! Minimal dense linear algebra: the few operations the estimation
//! procedures need (Cholesky factorisation and SPD solves for normal
//! equations), implemented directly on a small row-major matrix type.
//!
//! The matrices involved are tiny — ARMA regression designs have at most a
//! dozen columns and the ARCH LM-test at most nine — so an O(k³) dense
//! Cholesky is the right tool; no pivoting or blocking is required.

use crate::error::StatsError;

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix transpose.
    #[cfg(test)]
    pub(crate) fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    #[cfg(test)]
    pub(crate) fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub(crate) fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec: dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Gram matrix `selfᵀ * self` computed without forming the transpose.
    pub(crate) fn gram(&self) -> Matrix {
        let k = self.cols;
        let mut g = Matrix::zeros(k, k);
        for r in 0..self.rows {
            let row = &self.data[r * k..(r + 1) * k];
            for i in 0..k {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for j in i..k {
                    g[(i, j)] += a * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..k {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `selfᵀ * y` for a response vector `y`.
    pub(crate) fn tr_matvec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, y.len(), "tr_matvec: dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let yv = y[r];
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * yv;
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Cholesky factorisation of a symmetric positive-definite matrix:
/// returns lower-triangular `L` with `L Lᵀ = A`.
///
/// Fails with [`StatsError::NotPositiveDefinite`] when a non-positive pivot
/// is encountered.
pub(crate) fn cholesky(a: &Matrix) -> Result<Matrix, StatsError> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "cholesky: matrix must be square");
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(StatsError::NotPositiveDefinite);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky
/// (forward then backward substitution).
pub(crate) fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, StatsError> {
    let l = cholesky(a)?;
    let n = l.rows();
    assert_eq!(b.len(), n, "solve_spd: rhs dimension mismatch");
    // Forward: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    // Backward: Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 0.5, -1.0, 2.0, 3.0]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_recovers_known_factor() {
        // A = L Lᵀ with L = [[2,0],[1,3]] ⇒ A = [[4,2],[2,10]].
        let a = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 10.0]);
        let l = cholesky(&a).unwrap();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 3.0).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(matches!(cholesky(&a), Err(StatsError::NotPositiveDefinite)));
    }

    #[test]
    fn solve_spd_solves_exactly() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = solve_spd(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }
}
