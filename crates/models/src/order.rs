//! Model-order selection for ARMA(p, q).
//!
//! The paper fixes low orders ("this justifies our choice of a low model
//! order", Fig. 12) and points at the standard literature for selection.
//! This module supplies the standard information-criterion machinery so
//! users can validate that choice on their own data: AIC/BIC scoring of a
//! candidate grid, as an extension of the paper's setup.

use crate::arma::{fit_arma, ArmaFit};
use tspdb_stats::error::StatsError;

/// Information criterion used for order scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Akaike: `n ln σ̂² + 2k`.
    Aic,
    /// Bayesian/Schwarz: `n ln σ̂² + k ln n`.
    Bic,
}

/// Score of one candidate order.
#[derive(Debug, Clone)]
pub struct OrderScore {
    /// AR order.
    pub p: usize,
    /// MA order.
    pub q: usize,
    /// Criterion value (lower is better).
    pub score: f64,
    /// Innovation variance of the fit.
    pub sigma2: f64,
}

/// Computes the chosen criterion for a fitted model over `n` observations.
pub(crate) fn criterion_value(fit: &ArmaFit, n: usize, criterion: Criterion) -> f64 {
    let k = (fit.p + fit.q + 1) as f64; // +1 for the constant
    let n_f = n as f64;
    let var_term = n_f * fit.sigma2_a.max(1e-300).ln();
    match criterion {
        Criterion::Aic => var_term + 2.0 * k,
        Criterion::Bic => var_term + k * n_f.ln(),
    }
}

/// Fits every `(p, q)` with `p ≤ max_p`, `q ≤ max_q` (excluding `(0,0)`)
/// and returns the scored candidates sorted best-first.
///
/// Candidates whose fit fails (window too short, degenerate data) are
/// silently skipped; an error is returned only if *no* candidate fits.
pub fn select_order(
    window: &[f64],
    max_p: usize,
    max_q: usize,
    criterion: Criterion,
) -> Result<Vec<OrderScore>, StatsError> {
    let mut scores = Vec::new();
    for p in 0..=max_p {
        for q in 0..=max_q {
            if p == 0 && q == 0 {
                continue;
            }
            if let Ok(fit) = fit_arma(window, p, q) {
                if fit.sigma2_a > 0.0 && fit.sigma2_a.is_finite() {
                    scores.push(OrderScore {
                        p,
                        q,
                        score: criterion_value(&fit, window.len(), criterion),
                        sigma2: fit.sigma2_a,
                    });
                }
            }
        }
    }
    if scores.is_empty() {
        return Err(StatsError::DegenerateInput(
            "no ARMA order could be fitted".into(),
        ));
    }
    scores.sort_by(|a, b| a.score.partial_cmp(&b.score).unwrap());
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tspdb_timeseries::generate::ar1_series;

    #[test]
    fn bic_prefers_parsimonious_models() {
        let s = ar1_series(8, 0.7, 1.0, 2000);
        let scores = select_order(s.values(), 4, 0, Criterion::Bic).unwrap();
        // AR(1) is the true model; BIC should rank it at or near the top
        // and definitely above AR(4).
        let rank = |p: usize| scores.iter().position(|o| o.p == p && o.q == 0).unwrap();
        assert!(
            rank(1) < rank(4),
            "BIC ranks AR(4) above AR(1): {:?}",
            scores.iter().map(|o| (o.p, o.score)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn best_candidate_comes_first() {
        let s = ar1_series(9, 0.5, 1.0, 500);
        let scores = select_order(s.values(), 3, 1, Criterion::Aic).unwrap();
        for w in scores.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
    }

    #[test]
    fn criterion_penalises_parameters() {
        let s = ar1_series(10, 0.6, 1.0, 300);
        let fit1 = fit_arma(s.values(), 1, 0).unwrap();
        let fit4 = fit_arma(s.values(), 4, 0).unwrap();
        // Same variance scale ⇒ the bigger model pays a larger penalty.
        let n = s.len();
        let a1 = criterion_value(&fit1, n, Criterion::Bic);
        let a4 = criterion_value(&fit4, n, Criterion::Bic);
        // σ² shrinks slightly for AR(4) but the penalty difference is
        // 3 · ln(300) ≈ 17; the net must favour AR(1) here.
        assert!(a1 < a4, "BIC(AR1) = {a1} vs BIC(AR4) = {a4}");
    }

    #[test]
    fn errors_when_nothing_fits() {
        assert!(select_order(&[1.0, 2.0], 3, 3, Criterion::Aic).is_err());
    }
}
