//! Derivative-free optimisation: Nelder–Mead simplex search.
//!
//! GARCH(1,1) quasi-maximum-likelihood has a smooth 3-parameter objective
//! whose gradient is awkward near the stationarity boundary; Nelder–Mead
//! over an unconstrained reparametrisation (see `tspdb-models::garch`) is
//! robust, dependency-free and plenty fast for windows of a few hundred
//! observations.

/// Configuration for the Nelder–Mead simplex minimiser.
#[derive(Debug, Clone)]
pub struct NelderMead {
    /// Maximum number of iterations (each iteration is one reflection /
    /// expansion / contraction / shrink cycle).
    pub max_iter: usize,
    /// Convergence tolerance on the simplex function-value spread.
    pub f_tol: f64,
    /// Convergence tolerance on the simplex diameter.
    pub x_tol: f64,
    /// Initial simplex edge length relative to each coordinate (absolute
    /// fallback when a coordinate is zero).
    pub initial_step: f64,
}

impl Default for NelderMead {
    fn default() -> Self {
        NelderMead {
            max_iter: 400,
            f_tol: 1e-10,
            x_tol: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Outcome of a simplex minimisation.
#[derive(Debug, Clone)]
pub struct OptimResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether a convergence tolerance was met before `max_iter`.
    pub converged: bool,
}

impl NelderMead {
    /// Minimises `f` starting from `x0`.
    ///
    /// Non-finite objective values are treated as `+∞`, which lets callers
    /// encode hard constraints by returning `f64::INFINITY`.
    pub fn minimize<F>(&self, mut f: F, x0: &[f64]) -> OptimResult
    where
        F: FnMut(&[f64]) -> f64,
    {
        let n = x0.len();
        assert!(n > 0, "NelderMead: empty parameter vector");
        let clean = |v: f64| if v.is_finite() { v } else { f64::INFINITY };

        // Standard coefficients (adaptive variants help mostly for n >> 10;
        // our problems are 2-4 dimensional).
        let alpha = 1.0; // reflection
        let gamma = 2.0; // expansion
        let rho = 0.5; // contraction
        let sigma = 0.5; // shrink

        // Build the initial simplex: x0 plus one perturbed vertex per axis.
        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
        simplex.push((x0.to_vec(), clean(f(x0))));
        for i in 0..n {
            let mut v = x0.to_vec();
            let step = if v[i] != 0.0 {
                self.initial_step * v[i].abs()
            } else {
                self.initial_step
            };
            v[i] += step;
            let fv = clean(f(&v));
            simplex.push((v, fv));
        }

        let mut iterations = 0;
        let mut converged = false;
        while iterations < self.max_iter {
            iterations += 1;
            simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

            // Convergence: function spread and simplex diameter.
            let f_best = simplex[0].1;
            let f_worst = simplex[n].1;
            let f_spread = (f_worst - f_best).abs();
            let x_spread = simplex[1..]
                .iter()
                .map(|(v, _)| {
                    v.iter()
                        .zip(&simplex[0].0)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f64, f64::max)
                })
                .fold(0.0f64, f64::max);
            if f_spread < self.f_tol * (1.0 + f_best.abs()) && x_spread < self.x_tol {
                converged = true;
                break;
            }

            // Centroid of all but the worst vertex.
            let mut centroid = vec![0.0; n];
            for (v, _) in &simplex[..n] {
                for (c, vi) in centroid.iter_mut().zip(v) {
                    *c += vi / n as f64;
                }
            }

            let worst = simplex[n].clone();
            let second_worst_f = simplex[n - 1].1;

            let reflect: Vec<f64> = centroid
                .iter()
                .zip(&worst.0)
                .map(|(c, w)| c + alpha * (c - w))
                .collect();
            let f_reflect = clean(f(&reflect));

            if f_reflect < simplex[0].1 {
                // Try expanding further in the same direction.
                let expand: Vec<f64> = centroid
                    .iter()
                    .zip(&reflect)
                    .map(|(c, r)| c + gamma * (r - c))
                    .collect();
                let f_expand = clean(f(&expand));
                simplex[n] = if f_expand < f_reflect {
                    (expand, f_expand)
                } else {
                    (reflect, f_reflect)
                };
            } else if f_reflect < second_worst_f {
                simplex[n] = (reflect, f_reflect);
            } else {
                // Contract toward the better of (worst, reflected).
                let (base, f_base) = if f_reflect < worst.1 {
                    (&reflect, f_reflect)
                } else {
                    (&worst.0, worst.1)
                };
                let contract: Vec<f64> = centroid
                    .iter()
                    .zip(base)
                    .map(|(c, b)| c + rho * (b - c))
                    .collect();
                let f_contract = clean(f(&contract));
                if f_contract < f_base {
                    simplex[n] = (contract, f_contract);
                } else {
                    // Shrink everything toward the best vertex.
                    let best = simplex[0].0.clone();
                    for (v, fv) in simplex.iter_mut().skip(1) {
                        for (vi, bi) in v.iter_mut().zip(&best) {
                            *vi = bi + sigma * (*vi - bi);
                        }
                        *fv = clean(f(v));
                    }
                }
            }
        }
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        OptimResult {
            x: simplex[0].0.clone(),
            fx: simplex[0].1,
            iterations,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let nm = NelderMead::default();
        let res = nm.minimize(
            |x| (x[0] - 3.0).powi(2) + 2.0 * (x[1] + 1.0).powi(2),
            &[0.0, 0.0],
        );
        assert!(
            res.converged,
            "did not converge in {} iters",
            res.iterations
        );
        assert!((res.x[0] - 3.0).abs() < 1e-4, "x0 = {}", res.x[0]);
        assert!((res.x[1] + 1.0).abs() < 1e-4, "x1 = {}", res.x[1]);
        assert!(res.fx < 1e-7);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let nm = NelderMead {
            max_iter: 4000,
            ..NelderMead::default()
        };
        let res = nm.minimize(
            |x| {
                let a = 1.0 - x[0];
                let b = x[1] - x[0] * x[0];
                a * a + 100.0 * b * b
            },
            &[-1.2, 1.0],
        );
        assert!((res.x[0] - 1.0).abs() < 1e-3, "x0 = {}", res.x[0]);
        assert!((res.x[1] - 1.0).abs() < 1e-3, "x1 = {}", res.x[1]);
    }

    #[test]
    fn respects_infinite_barrier() {
        // Constraint x > 0 encoded as +∞; optimum of (x-2)² at 2 is interior,
        // but starting point and simplex cross the barrier.
        let nm = NelderMead::default();
        let res = nm.minimize(
            |x| {
                if x[0] <= 0.0 {
                    f64::INFINITY
                } else {
                    (x[0] - 2.0).powi(2)
                }
            },
            &[0.5],
        );
        assert!((res.x[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn handles_one_dimension() {
        let nm = NelderMead::default();
        let res = nm.minimize(|x| (x[0] + 5.0).powi(2) + 1.0, &[10.0]);
        assert!((res.x[0] + 5.0).abs() < 1e-4);
        assert!((res.fx - 1.0).abs() < 1e-7);
    }
}
