//! Probabilistic aggregates over tuple-independent relations.
//!
//! Beyond the expected-value aggregates in [`crate::query`], several useful
//! queries need the full *distribution* of the tuple count — "what is the
//! probability that Alice visited room 4 at least three times?". For `n`
//! independent tuples with probabilities `p_1..p_n` the count follows a
//! Poisson-binomial distribution, computed exactly here with the standard
//! O(n²) dynamic program (O(n·k) when only the first `k` probabilities are
//! needed).

use crate::error::DbError;
use crate::query::{matching_rows, CmpOp, Conjunction};
use crate::table::ProbTable;

/// Exact distribution of the number of matching tuples present in a
/// possible world: entry `k` is `P(count = k)`.
///
/// Standard Poisson-binomial DP: fold tuples one at a time, maintaining the
/// distribution of the partial count.
pub fn count_distribution(table: &ProbTable, pred: &Conjunction) -> Result<Vec<f64>, DbError> {
    let mut dist = vec![1.0f64];
    for i in matching_rows(table, pred)? {
        fold_tuple(&mut dist, table.probs()[i]);
    }
    Ok(dist)
}

/// Poisson-binomial distribution over an explicit probability slice — the
/// predicate-free core of [`count_distribution`], used by the planner's
/// per-group aggregate evaluation.
pub fn count_distribution_of(probs: &[f64]) -> Vec<f64> {
    let mut dist = Vec::with_capacity(probs.len() + 1);
    dist.push(1.0f64);
    for &p in probs {
        fold_tuple(&mut dist, p);
    }
    dist
}

/// Folds one tuple with existence probability `p` into the partial-count
/// distribution **in place**: one `push` to grow the buffer, then a
/// backward sweep so every update reads only not-yet-overwritten entries.
/// The DP stays O(n²) in time but drops the per-tuple `next` vector — the
/// whole fold allocates O(1) times (the single buffer, grown amortised).
fn fold_tuple(dist: &mut Vec<f64>, p: f64) {
    dist.push(0.0);
    for k in (1..dist.len()).rev() {
        dist[k] = dist[k] * (1.0 - p) + dist[k - 1] * p;
    }
    dist[0] *= 1.0 - p;
}

/// Expectation and variance of the sum of `values` over tuples present in
/// a possible world: `Σ p_i v_i` and `Σ p_i (1 − p_i) v_i²` (linearity of
/// expectation; variance by tuple independence). `values` must be parallel
/// to `probs`.
pub fn sum_moments_of(probs: &[f64], values: &[f64]) -> (f64, f64) {
    assert_eq!(
        probs.len(),
        values.len(),
        "sum_moments_of: values must be parallel to probs"
    );
    let mut mean = 0.0;
    let mut var = 0.0;
    for (&p, &v) in probs.iter().zip(values) {
        mean += p * v;
        var += p * (1.0 - p) * v * v;
    }
    (mean, var)
}

/// Largest dyadic scale probed when looking for an exact integer
/// representation of the sum domain: values are checked against grids of
/// step `2^-k` for `k = 0..=MAX_DYADIC_SHIFT`.
const MAX_DYADIC_SHIFT: u32 = 20;

/// Number of quantisation steps when values have no exact dyadic
/// representation: the sum domain is snapped to a grid of
/// `Σ|v| / QUANT_STEPS`, so the DP support stays bounded.
const QUANT_STEPS: f64 = 65536.0;

/// Ceiling on `tuples × support` cells the sum DP may touch — the
/// resource guard that turns a pathological `HAVING SUM` into a
/// [`DbError::Plan`] instead of an unbounded computation.
const MAX_DP_CELLS: u128 = 1 << 27;

/// Exact distribution of `SUM(column)` over possible worlds of a
/// tuple-independent group, on a uniform value grid.
///
/// Built by [`sum_distribution_of`]: tuple values are mapped to integer
/// multiples of a grid `step` (exactly, when a dyadic grid of step
/// `2^-k`, `k ≤ 20`, represents every value; otherwise snapped to a
/// `Σ|v| / 2^16` grid), and the world sum's probability mass function is
/// folded tuple by tuple — the value-weighted generalisation of the
/// Poisson-binomial count DP. Negative values are handled by an index
/// offset.
#[derive(Debug, Clone, PartialEq)]
pub struct SumDistribution {
    /// `dist[i] = P(sum = offset + i·step)`.
    dist: Vec<f64>,
    /// Grid step between adjacent support points.
    step: f64,
    /// Smallest representable sum (all-negative-tuples world).
    offset: f64,
    /// Whether the grid represents every input value exactly.
    exact: bool,
}

impl SumDistribution {
    /// `P(sum ⟨op⟩ threshold)`. Support points within `1e-9` of the
    /// threshold compare as equal, so grid-aligned thresholds behave
    /// exactly under `>=` / `<=` / `=`.
    pub fn tail(&self, op: CmpOp, threshold: f64) -> f64 {
        let mut mass = 0.0;
        for (i, &p) in self.dist.iter().enumerate() {
            let s = self.offset + i as f64 * self.step;
            let ord = if (s - threshold).abs() <= 1e-9 {
                std::cmp::Ordering::Equal
            } else if s < threshold {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            };
            if op.eval(Some(ord)) {
                mass += p;
            }
        }
        mass.clamp(0.0, 1.0)
    }

    /// Mean of the distribution (equals `Σ p·v` up to grid resolution).
    pub fn mean(&self) -> f64 {
        self.dist
            .iter()
            .enumerate()
            .map(|(i, &p)| p * (self.offset + i as f64 * self.step))
            .sum()
    }

    /// Whether every input value was represented exactly on the grid
    /// (false means values were quantised to `Σ|v| / 2^16` resolution).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Number of support points.
    pub fn support_len(&self) -> usize {
        self.dist.len()
    }
}

/// Builds the exact [`SumDistribution`] of `Σ v_i` over worlds of
/// independent tuples `(p_i, v_i)`. `values` must be parallel to `probs`.
///
/// Fails with a [`DbError::Plan`] resource guard when the DP would touch
/// more than `2^27` cells — the caller should fall back to `WITH WORLDS`
/// estimation for such groups.
pub fn sum_distribution_of(probs: &[f64], values: &[f64]) -> Result<SumDistribution, DbError> {
    assert_eq!(
        probs.len(),
        values.len(),
        "sum_distribution_of: values must be parallel to probs"
    );
    // Tuples that cannot move the sum (impossible, or value 0) only
    // waste support; drop them up front.
    let live: Vec<(f64, f64)> = probs
        .iter()
        .zip(values)
        .filter(|&(&p, &v)| p > 0.0 && v != 0.0)
        .map(|(&p, &v)| (p, v))
        .collect();

    let (step, exact) = match dyadic_step(live.iter().map(|&(_, v)| v)) {
        Some(step) => (step, true),
        None => {
            let magnitude: f64 = live.iter().map(|&(_, v)| v.abs()).sum();
            (magnitude / QUANT_STEPS, false)
        }
    };
    let mut units: Vec<(f64, i64)> = Vec::with_capacity(live.len());
    let mut span: u128 = 0;
    for &(p, v) in &live {
        let u = (v / step).round() as i64;
        span += u.unsigned_abs() as u128;
        units.push((p, u));
    }
    let cells = span.saturating_add(1) * live.len().max(1) as u128;
    if cells > MAX_DP_CELLS {
        return Err(DbError::Plan(format!(
            "HAVING SUM distribution needs {cells} DP cells over {} tuples \
             (limit {MAX_DP_CELLS}); narrow the group or estimate with WITH WORLDS",
            live.len()
        )));
    }

    // Index layout: sums live on offset + i·step for i in 0..=span, where
    // offset is the all-negative-tuples world. Fold keeps the live index
    // range tight so cost tracks the actual support, not the allocation.
    let neg: i64 = units.iter().map(|&(_, u)| u.min(0)).sum();
    let mut dist = vec![0.0f64; span as usize + 1];
    let base = (-neg) as usize;
    dist[base] = 1.0;
    let (mut lo, mut hi) = (base, base);
    for &(p, u) in &units {
        if u > 0 {
            let u = u as usize;
            hi += u;
            for i in (lo..=hi).rev() {
                let carried = if i >= lo + u { dist[i - u] } else { 0.0 };
                dist[i] = dist[i] * (1.0 - p) + carried * p;
            }
        } else {
            let u = (-u) as usize;
            lo -= u;
            for i in lo..=hi {
                let carried = if i + u <= hi { dist[i + u] } else { 0.0 };
                dist[i] = dist[i] * (1.0 - p) + carried * p;
            }
        }
    }
    Ok(SumDistribution {
        dist,
        step,
        offset: neg as f64 * step,
        exact,
    })
}

/// The smallest dyadic grid step `2^-k` (`k ≤ `[`MAX_DYADIC_SHIFT`]) that
/// represents every value exactly, or `None` when no such grid exists.
fn dyadic_step(values: impl Iterator<Item = f64> + Clone) -> Option<f64> {
    for k in 0..=MAX_DYADIC_SHIFT {
        let scale = (1u64 << k) as f64;
        let fits = values.clone().all(|v| {
            let scaled = v * scale;
            scaled.abs() < 2f64.powi(52) && (scaled - scaled.round()).abs() <= 1e-9
        });
        if fits {
            return Some(1.0 / scale);
        }
    }
    None
}

/// `P(count ≥ k)` for tuples matching the predicate.
pub fn prob_count_at_least(
    table: &ProbTable,
    pred: &Conjunction,
    k: usize,
) -> Result<f64, DbError> {
    let dist = count_distribution(table, pred)?;
    Ok(dist.iter().skip(k).sum::<f64>().clamp(0.0, 1.0))
}

/// Expected count and variance of the count (`Σp_i`, `Σp_i(1−p_i)`) for
/// tuples matching the predicate — the closed forms, no DP needed.
pub fn count_moments(table: &ProbTable, pred: &Conjunction) -> Result<(f64, f64), DbError> {
    let mut mean = 0.0;
    let mut var = 0.0;
    for i in matching_rows(table, pred)? {
        let p = table.probs()[i];
        mean += p;
        var += p * (1.0 - p);
    }
    Ok((mean, var))
}

/// The most likely count (mode of the Poisson-binomial; smallest index on
/// ties).
pub fn most_likely_count(table: &ProbTable, pred: &Conjunction) -> Result<usize, DbError> {
    let dist = count_distribution(table, pred)?;
    let mut best = 0usize;
    for (k, &p) in dist.iter().enumerate() {
        if p > dist[best] {
            best = k;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CmpOp, Comparison};
    use crate::schema::Schema;
    use crate::value::{ColumnType, Value};

    fn view(probs: &[f64]) -> ProbTable {
        let schema = Schema::of(&[("room", ColumnType::Int)]);
        let mut v = ProbTable::new("v", schema);
        for (i, &p) in probs.iter().enumerate() {
            v.insert(vec![Value::Int(i as i64 % 4)], p).unwrap();
        }
        v
    }

    #[test]
    fn distribution_sums_to_one() {
        let v = view(&[0.3, 0.7, 0.5, 0.9, 0.01]);
        let dist = count_distribution(&v, &vec![]).unwrap();
        assert_eq!(dist.len(), 6);
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_tuple_case_matches_hand_computation() {
        let v = view(&[0.5, 0.2]);
        let dist = count_distribution(&v, &vec![]).unwrap();
        assert!((dist[0] - 0.5 * 0.8).abs() < 1e-12);
        assert!((dist[1] - (0.5 * 0.8 + 0.5 * 0.2)).abs() < 1e-12);
        assert!((dist[2] - 0.5 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn deterministic_tuples_give_point_mass() {
        let v = view(&[1.0, 1.0, 0.0]);
        let dist = count_distribution(&v, &vec![]).unwrap();
        assert!((dist[2] - 1.0).abs() < 1e-12);
        assert_eq!(most_likely_count(&v, &vec![]).unwrap(), 2);
    }

    #[test]
    fn at_least_queries() {
        let v = view(&[0.5, 0.5]);
        let p1 = prob_count_at_least(&v, &vec![], 1).unwrap();
        assert!((p1 - 0.75).abs() < 1e-12);
        let p0 = prob_count_at_least(&v, &vec![], 0).unwrap();
        assert!((p0 - 1.0).abs() < 1e-12);
        let p3 = prob_count_at_least(&v, &vec![], 3).unwrap();
        assert_eq!(p3, 0.0);
    }

    #[test]
    fn predicate_restricts_the_count() {
        // Rooms cycle 0,1,2,3,0,...; restrict to room 0 (indices 0 and 4).
        let v = view(&[0.5, 0.9, 0.9, 0.9, 0.5]);
        let pred = vec![Comparison::new("room", CmpOp::Eq, 0i64)];
        let dist = count_distribution(&v, &pred).unwrap();
        assert_eq!(dist.len(), 3); // two candidate tuples
        assert!((dist[2] - 0.25).abs() < 1e-12);
        let (mean, var) = count_moments(&v, &pred).unwrap();
        assert!((mean - 1.0).abs() < 1e-12);
        assert!((var - 0.5).abs() < 1e-12);
    }

    #[test]
    fn moments_match_distribution() {
        let probs = [0.1, 0.4, 0.65, 0.9, 0.25, 0.33];
        let v = view(&probs);
        let dist = count_distribution(&v, &vec![]).unwrap();
        let mean_dp: f64 = dist.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        let e2: f64 = dist
            .iter()
            .enumerate()
            .map(|(k, p)| (k as f64) * (k as f64) * p)
            .sum();
        let (mean, var) = count_moments(&v, &vec![]).unwrap();
        assert!((mean - mean_dp).abs() < 1e-12);
        assert!((var - (e2 - mean_dp * mean_dp)).abs() < 1e-9);
    }

    #[test]
    fn domain_dp_matches_table_dp() {
        let probs = [0.1, 0.4, 0.65, 0.9, 0.25, 0.33];
        let v = view(&probs);
        assert_eq!(
            count_distribution_of(&probs),
            count_distribution(&v, &vec![]).unwrap()
        );
        assert_eq!(count_distribution_of(&[]), vec![1.0]);
    }

    #[test]
    fn sum_moments_closed_forms() {
        let probs = [0.5, 0.2];
        let values = [3.0, -1.0];
        let (mean, var) = sum_moments_of(&probs, &values);
        assert!((mean - (0.5 * 3.0 - 0.2)).abs() < 1e-12);
        assert!((var - (0.25 * 9.0 + 0.16 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_relation_has_count_zero() {
        let v = view(&[]);
        let dist = count_distribution(&v, &vec![]).unwrap();
        assert_eq!(dist, vec![1.0]);
        assert_eq!(most_likely_count(&v, &vec![]).unwrap(), 0);
    }

    /// Brute-force `P(sum ⟨op⟩ t)` by enumerating all 2^n worlds.
    fn brute_sum_tail(probs: &[f64], values: &[f64], op: CmpOp, t: f64) -> f64 {
        let n = probs.len();
        let mut mass = 0.0;
        for world in 0..(1u32 << n) {
            let mut p_world = 1.0;
            let mut sum = 0.0;
            for i in 0..n {
                if world & (1 << i) != 0 {
                    p_world *= probs[i];
                    sum += values[i];
                } else {
                    p_world *= 1.0 - probs[i];
                }
            }
            let ord = if (sum - t).abs() <= 1e-9 {
                std::cmp::Ordering::Equal
            } else {
                sum.partial_cmp(&t).unwrap()
            };
            if op.eval(Some(ord)) {
                mass += p_world;
            }
        }
        mass
    }

    #[test]
    fn sum_distribution_matches_world_enumeration() {
        let probs = [0.3, 0.7, 0.5, 0.9, 0.2];
        let values = [1.5, -2.0, 0.25, 3.0, -0.5];
        let d = sum_distribution_of(&probs, &values).unwrap();
        assert!(d.is_exact(), "dyadic values must use the exact grid");
        for op in [
            CmpOp::Ge,
            CmpOp::Gt,
            CmpOp::Le,
            CmpOp::Lt,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            for t in [-2.5, -2.0, 0.0, 0.25, 1.0, 2.75, 4.75, 10.0] {
                let exact = brute_sum_tail(&probs, &values, op, t);
                let got = d.tail(op, t);
                assert!(
                    (got - exact).abs() < 1e-9,
                    "{op:?} {t}: DP {got} vs worlds {exact}"
                );
            }
        }
        let (mean, _) = sum_moments_of(&probs, &values);
        assert!((d.mean() - mean).abs() < 1e-9);
    }

    #[test]
    fn sum_distribution_quantizes_non_dyadic_values() {
        let probs = [0.5, 0.5, 0.5];
        let values = [0.1, 0.3, 1.0 / 3.0];
        let d = sum_distribution_of(&probs, &values).unwrap();
        assert!(!d.is_exact());
        // Quantisation resolution is Σ|v|/2^16 ≈ 1e-5; the tail at a
        // mid-grid threshold still matches world enumeration closely.
        let exact = brute_sum_tail(&probs, &values, CmpOp::Ge, 0.2);
        assert!((d.tail(CmpOp::Ge, 0.2) - exact).abs() < 1e-3);
    }

    #[test]
    fn sum_distribution_edge_cases() {
        // No tuples → point mass at zero.
        let d = sum_distribution_of(&[], &[]).unwrap();
        assert_eq!(d.support_len(), 1);
        assert_eq!(d.tail(CmpOp::Ge, 0.0), 1.0);
        assert_eq!(d.tail(CmpOp::Gt, 0.0), 0.0);
        // Zero-probability and zero-value tuples cannot move the sum.
        let d = sum_distribution_of(&[0.0, 0.8], &[5.0, 0.0]).unwrap();
        assert_eq!(d.support_len(), 1);
        assert_eq!(d.tail(CmpOp::Eq, 0.0), 1.0);
        // Certain tuples shift the whole distribution.
        let d = sum_distribution_of(&[1.0, 0.5], &[-2.0, 1.0]).unwrap();
        assert!((d.tail(CmpOp::Le, -2.0) - 0.5).abs() < 1e-12);
        assert!((d.tail(CmpOp::Eq, -1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sum_distribution_resource_guard_trips() {
        // One tuple whose unit count alone exceeds the cell budget.
        let err = sum_distribution_of(&[0.5], &[(1u64 << 40) as f64]).unwrap_err();
        match err {
            DbError::Plan(msg) => assert!(msg.contains("DP cells"), "{msg}"),
            other => panic!("expected Plan error, got {other:?}"),
        }
    }
}
