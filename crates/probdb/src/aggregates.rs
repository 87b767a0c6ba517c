//! Probabilistic aggregates over tuple-independent relations.
//!
//! Beyond the expected-value aggregates in [`crate::query`], several useful
//! queries need the full *distribution* of the tuple count — "what is the
//! probability that Alice visited room 4 at least three times?". For `n`
//! independent tuples with probabilities `p_1..p_n` the count follows a
//! Poisson-binomial distribution, computed here with the standard O(n²)
//! dynamic program, or in O(n·w) when a trim budget lets the sweep drop
//! the far tails (`w` is the width of the range it keeps).
//!
//! The `*_of` kernels over explicit probability slices are the one place
//! each closed form lives: the planner's aggregates, the row-level
//! `WITH WORLDS` answer and the whole-relation operators all call them.

use crate::error::DbError;
use crate::query::{matching_rows, CmpOp, Conjunction};
use crate::scan;
use crate::table::ProbTable;

/// Exact distribution of the number of matching tuples present in a
/// possible world: entry `k` is `P(count = k)`.
///
/// Gathers the matching probabilities and runs [`count_distribution_of`]
/// with budget 0.
pub fn count_distribution(table: &ProbTable, pred: &Conjunction) -> Result<Vec<f64>, DbError> {
    let probs = scan::gather_probs(table.probs(), &matching_rows(table, pred)?);
    Ok(count_distribution_of(&probs, 0.0).0)
}

/// Poisson-binomial distribution over an explicit probability slice, and
/// the probability mass the sweep trimmed to stay within `budget`.
///
/// A double-buffered sweep: folding tuple `p` into the partial-count
/// distribution `cur` writes `next[lo] = cur[lo]·(1−p)` and
/// `next[k] = cur[k]·(1−p) + cur[k−1]·p` over the live range `lo..=hi+1`.
/// The two buffers never alias, so the sweep has no branch and no
/// store→load chain and vectorises.
///
/// After each sweep the live range is trimmed from both ends, the smaller
/// end entry first, while the mass trimmed so far stays `≤ budget`; a
/// trimmed entry is zero in the result. The DP is linear and preserves
/// mass, so the result is within L1 distance `trimmed` (plus rounding) of
/// the untrimmed distribution.
///
/// Budget 0 trims only exact zeros. Every other entry is then the result
/// of the same IEEE operations, in the same order, as the textbook
/// in-place backward fold: a zero neighbour adds `+0.0`, which changes no
/// non-negative value. That is the form `HAVING COUNT` runs.
pub fn count_distribution_of(probs: &[f64], budget: f64) -> (Vec<f64>, f64) {
    let mut cur = vec![0.0f64; probs.len() + 1];
    let mut next = cur.clone();
    cur[0] = 1.0;
    // `cur[lo..=hi]` is the live range. Both buffers are zero above `hi`,
    // so `cur[hi + 1]` is the zero pad the top entry of a sweep reads.
    // Below `lo` they may hold stale mass, which no sweep reads.
    let (mut lo, mut hi) = (0usize, 0usize);
    let mut trimmed = 0.0;
    for &p in probs {
        let q = 1.0 - p;
        next[lo] = cur[lo] * q;
        blend(
            &mut next[lo + 1..=hi + 1],
            &cur[lo + 1..=hi + 1],
            &cur[lo..=hi],
            p,
            q,
        );
        std::mem::swap(&mut cur, &mut next);
        hi += 1;
        while lo < hi {
            let top = cur[hi] <= cur[lo];
            let end = if top { cur[hi] } else { cur[lo] };
            if trimmed + end > budget {
                break;
            }
            trimmed += end;
            if top {
                (cur[hi], next[hi]) = (0.0, 0.0);
                hi -= 1;
            } else {
                cur[lo] = 0.0;
                lo += 1;
            }
        }
    }
    cur[..lo].fill(0.0);
    (cur, trimmed)
}

/// `out[i] = stay[i]·q + moved[i]·p`: one Bernoulli fold of the count DP
/// over non-aliasing slices of equal length, written as a zip so the
/// compiler drops the bounds checks and vectorises it.
fn blend(out: &mut [f64], stay: &[f64], moved: &[f64], p: f64, q: f64) {
    for ((o, &s), &m) in out.iter_mut().zip(stay).zip(moved) {
        *o = s * q + m * p;
    }
}

/// `Σ xs`, folded in order from `+0.0` (`Iterator::sum` starts at `−0.0`,
/// so an empty sum would be `−0`): the fold `COUNT(*) = Σp` and every
/// deterministic `SUM` run.
pub(crate) fn sum_from_zero(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, &x| acc + x)
}

/// Expected count and its variance, `Σp` ([`sum_from_zero`]) and
/// `Σp(1 − p)`, over an explicit probability slice.
pub(crate) fn count_moments_of(probs: &[f64]) -> (f64, f64) {
    let var = probs.iter().fold(0.0, |acc, &p| acc + p * (1.0 - p));
    (sum_from_zero(probs), var)
}

/// `P(at least one tuple is present)`: `1 − Π(1 − p)`, computed as
/// `−expm1(Σ ln_1p(−p))` with the sum folded in order from `+0.0`. A
/// single tuple at `p = 1e-300` gives `1e-300` (the product form rounds
/// it to 0), any `p = 1` gives 1, and an empty slice gives `+0.0`.
pub(crate) fn event_probability_of(probs: &[f64]) -> f64 {
    let log_absent = probs.iter().fold(0.0, |acc, &p| acc + (-p).ln_1p());
    // `0.0 −` rather than negation: an empty domain is `+0.0`, not `−0.0`.
    0.0 - log_absent.exp_m1()
}

/// Expectation and variance of the sum of `values` over tuples present in
/// a possible world: `Σ p_i v_i` and `Σ p_i (1 − p_i) v_i²` (linearity of
/// expectation; variance by tuple independence). `values` must be parallel
/// to `probs`.
pub(crate) fn sum_moments_of(probs: &[f64], values: &[f64]) -> (f64, f64) {
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

/// `Σp·v`, folded in order from `+0.0`: the mean [`sum_moments_of`]
/// returns, bit for bit, without its variance fold.
pub(crate) fn expected_sum_of(probs: &[f64], values: &[f64]) -> f64 {
    assert_eq!(
        probs.len(),
        values.len(),
        "expected_sum_of: values must be parallel to probs"
    );
    probs
        .iter()
        .zip(values)
        .fold(0.0, |acc, (&p, &v)| acc + p * v)
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
/// Built by [`sum_distribution_of`]: finite tuple values are mapped to
/// integer multiples of a grid `step` (exactly, when a dyadic grid of step
/// `2^-k`, `k ≤ 20`, represents every value; otherwise snapped to a
/// `Σ|v| / 2^16` grid), and the world sum's probability mass function is
/// folded tuple by tuple — the value-weighted generalisation of the
/// Poisson-binomial count DP. Negative values are handled by an index
/// offset. Tuples holding ±∞ or NaN stay off the grid; `Self::tail`
/// accounts for them in closed form.
#[derive(Debug, Clone, PartialEq)]
pub struct SumDistribution {
    /// `dist[i] = P(finite sum = offset + i·step)`.
    dist: Vec<f64>,
    /// Grid step between adjacent support points.
    step: f64,
    /// Smallest representable sum (all-negative-tuples world).
    offset: f64,
    /// Whether the grid represents every input value exactly.
    exact: bool,
    /// `(p, v)` of the tuples whose value is ±∞ or NaN, in tuple order.
    non_finite: Vec<(f64, f64)>,
}

impl SumDistribution {
    /// `P(sum ⟨op⟩ threshold)`. Support points within `1e-9` of the
    /// threshold compare as equal, so grid-aligned thresholds behave
    /// exactly under `>=` / `<=` / `=`.
    ///
    /// With `A`, `B` and `C` the probabilities that no `+∞`, no `−∞` and
    /// no NaN tuple is present, the world sum is finite with probability
    /// `A·B·C`, `+∞` with `(1−A)·B·C` and `−∞` with `A·(1−B)·C`. Every
    /// other world sums to NaN (a NaN is present, or both infinities are),
    /// and a NaN sum satisfies no comparison — the `WITH WORLDS` rule.
    /// Without non-finite tuples this is the finite tail, bit for bit.
    pub(crate) fn tail(&self, op: CmpOp, threshold: f64) -> f64 {
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
        let finite = mass.clamp(0.0, 1.0);
        let absent = |kind: fn(f64) -> bool| -> f64 {
            self.non_finite
                .iter()
                .filter(|&&(_, v)| kind(v))
                .map(|&(p, _)| 1.0 - p)
                .product()
        };
        let a = absent(|v| v == f64::INFINITY);
        let b = absent(|v| v == f64::NEG_INFINITY);
        let c = absent(f64::is_nan);
        let holds = |s: f64| -> f64 {
            if op.eval(s.partial_cmp(&threshold)) {
                1.0
            } else {
                0.0
            }
        };
        (a * b * c * finite
            + (1.0 - a) * b * c * holds(f64::INFINITY)
            + a * (1.0 - b) * c * holds(f64::NEG_INFINITY))
        .clamp(0.0, 1.0)
    }

    /// Mean of the distribution (equals `Σ p·v` up to grid resolution;
    /// non-finite when a ±∞ or NaN value can be present).
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f64 {
        let finite: f64 = self
            .dist
            .iter()
            .enumerate()
            .map(|(i, &p)| p * (self.offset + i as f64 * self.step))
            .sum();
        self.non_finite
            .iter()
            .fold(finite, |mean, &(p, v)| mean + p * v)
    }

    /// Whether every finite input value was represented exactly on the
    /// grid (false means values were quantised to `Σ|v| / 2^16`
    /// resolution).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Number of support points of the finite sum.
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
    // waste support; drop them up front. Non-finite values have no grid
    // point and would make the quantisation step non-finite, so they are
    // set aside before the grid is chosen.
    let (live, non_finite): (Vec<_>, Vec<_>) = probs
        .iter()
        .zip(values)
        .filter(|&(&p, &v)| p > 0.0 && v != 0.0)
        .map(|(&p, &v)| (p, v))
        .partition(|&(_, v)| v.is_finite());

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

    let neg: i64 = units.iter().map(|&(_, u)| u.min(0)).sum();
    Ok(SumDistribution {
        dist: fold_units(&units, span as usize, neg),
        step,
        offset: neg as f64 * step,
        exact,
        non_finite,
    })
}

/// The sum DP over grid units: `units[j] = (p_j, u_j)` moves the sum by
/// `u_j` grid steps with probability `p_j`. `span = Σ|u_j|` and
/// `neg = Σ min(u_j, 0)`; entry `i` of the result is
/// `P(sum = neg + i)` in units.
///
/// Sums live on `neg + i` for `i` in `0..=span`. The fold keeps the live
/// index range tight so cost tracks the actual support, not the
/// allocation. Each fold runs in place in two branch-free sweeps: the
/// cells that receive carried mass from `i ∓ u`, then the cells that only
/// decay. The carried sweep runs away from its source (downward for
/// `u > 0`, upward otherwise), so every cell is read before it is
/// overwritten and never loaded after a store. Cells outside the old
/// range still hold allocation zeros, which the carried form reads as the
/// mass they had.
fn fold_units(units: &[(f64, i64)], span: usize, neg: i64) -> Vec<f64> {
    let mut dist = vec![0.0f64; span + 1];
    let base = (-neg) as usize;
    dist[base] = 1.0;
    let (mut lo, mut hi) = (base, base);
    for &(p, u) in units {
        // `0.0·p` is what an uncarried cell adds: the same product the
        // textbook loop forms from its zero.
        let (q, uncarried) = (1.0 - p, 0.0 * p);
        let decay = |cells: &mut [f64]| {
            for x in cells {
                *x = *x * q + uncarried;
            }
        };
        if u > 0 {
            let u = u as usize;
            hi += u;
            for i in (lo + u..=hi).rev() {
                dist[i] = dist[i] * q + dist[i - u] * p;
            }
            decay(&mut dist[lo..lo + u]);
        } else {
            let u = (-u) as usize;
            lo -= u;
            for i in lo..=hi - u {
                dist[i] = dist[i] * q + dist[i + u] * p;
            }
            decay(&mut dist[hi - u + 1..=hi]);
        }
    }
    dist
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
    let probs = scan::gather_probs(table.probs(), &matching_rows(table, pred)?);
    Ok(count_moments_of(&probs))
}

/// Probabilities on which a kernel rewrite is most likely to differ from
/// the textbook loop: 0, 1, the smallest subnormal, 2^-53, 1 − 2^-53, and
/// one ulp either side of `k·2^-53` — the resolution of the sampler's
/// uniform draws.
#[cfg(test)]
pub(crate) fn edge_probabilities() -> Vec<f64> {
    let ulp = 1.0 / (1u64 << 53) as f64;
    let mut edges = vec![0.0, 1.0, f64::from_bits(1), ulp, 1.0 - ulp, 0.5];
    for k in [1u64, 3, 1 << 20, (1 << 52) + 1, (1 << 53) - 2] {
        let on = k as f64 * ulp;
        edges.extend([
            f64::from_bits(on.to_bits() - 1),
            on,
            f64::from_bits(on.to_bits() + 1),
        ]);
    }
    edges
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
            count_distribution_of(&probs, 0.0).0,
            count_distribution(&v, &vec![]).unwrap()
        );
        assert_eq!(count_distribution_of(&[], 0.0), (vec![1.0], 0.0));
        assert_eq!(count_distribution_of(&[], 1.0), (vec![1.0], 0.0));
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

    #[test]
    fn non_finite_values_follow_the_worlds_semantics() {
        // x = 1, +∞, 2 with p = 0.5 each: the sum is finite (and then
        // uniform over {0, 1, 2, 3}) with probability 1/2, +∞ otherwise.
        let probs = [0.5, 0.5, 0.5];
        let d = sum_distribution_of(&probs, &[1.0, f64::INFINITY, 2.0]).unwrap();
        assert!(d.is_exact());
        assert_eq!(d.tail(CmpOp::Ge, 2.0), 0.75);
        assert_eq!(d.tail(CmpOp::Le, 100.0), 0.5);
        assert!(d.mean().is_infinite());
        // −∞ mirrors it.
        let d = sum_distribution_of(&probs, &[1.0, f64::NEG_INFINITY, 2.0]).unwrap();
        assert_eq!(d.tail(CmpOp::Le, 100.0), 1.0);
        assert_eq!(d.tail(CmpOp::Ge, 2.0), 0.25);
        // A present NaN satisfies nothing, not even `<>`.
        let d = sum_distribution_of(&probs, &[1.0, f64::NAN, 2.0]).unwrap();
        assert_eq!(d.tail(CmpOp::Ne, 1e9), 0.5);
        assert_eq!(d.tail(CmpOp::Ge, 2.0), 0.25);
        // +∞ and −∞ together sum to NaN: only the finite worlds with the
        // 2 present (1/4 · 1/2) and the +∞-only worlds (1/4) exceed 0.
        let d = sum_distribution_of(&probs, &[f64::INFINITY, f64::NEG_INFINITY, 2.0]).unwrap();
        assert_eq!(d.tail(CmpOp::Gt, 0.0), 0.125 + 0.25);
        // Impossible non-finite tuples do not count at all.
        let d = sum_distribution_of(&[0.0, 0.5], &[f64::NAN, 2.0]).unwrap();
        assert_eq!(d.tail(CmpOp::Ge, 2.0), 0.5);
    }

    /// The in-place backward fold [`count_distribution_of`] replaced: the
    /// reference its double-buffered sweep matches bit for bit.
    fn fold_tuple(dist: &mut Vec<f64>, p: f64) {
        dist.push(0.0);
        for k in (1..dist.len()).rev() {
            dist[k] = dist[k] * (1.0 - p) + dist[k - 1] * p;
        }
        dist[0] *= 1.0 - p;
    }

    fn count_reference(probs: &[f64]) -> Vec<f64> {
        let mut dist = vec![1.0f64];
        for &p in probs {
            fold_tuple(&mut dist, p);
        }
        dist
    }

    /// The single-loop sum fold [`fold_units`] replaced, with its
    /// per-cell `if`.
    fn fold_units_reference(units: &[(f64, i64)], span: usize, neg: i64) -> Vec<f64> {
        let mut dist = vec![0.0f64; span + 1];
        let base = (-neg) as usize;
        dist[base] = 1.0;
        let (mut lo, mut hi) = (base, base);
        for &(p, u) in units {
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
        dist
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `pick < edges.len()` takes that edge value, anything else `random`.
    fn with_edges(picks: &[(usize, f64)]) -> Vec<f64> {
        let edges = edge_probabilities();
        picks
            .iter()
            .map(|&(i, random)| edges.get(i).copied().unwrap_or(random))
            .collect()
    }

    /// Budget 0 is the reference fold bit for bit; the row-level budget
    /// stays within its tracked trimmed mass of it, and is the same bits
    /// when it trimmed nothing.
    fn assert_count_matches(probs: &[f64]) {
        let (exact, none) = count_distribution_of(probs, 0.0);
        assert_eq!(none, 0.0, "budget 0 trims only zeros");
        assert_eq!(
            bits(&exact),
            bits(&count_reference(probs)),
            "count DP over {probs:?}"
        );
        assert_trim_within_budget(probs, 2f64.powi(-60), &exact);
    }

    /// The trimmed sweep at `budget` against the untrimmed `exact`: the
    /// same length, trimmed mass within the budget, and L1 distance
    /// within the trimmed mass plus the rounding of two `n`-step sweeps.
    fn assert_trim_within_budget(probs: &[f64], budget: f64, exact: &[f64]) {
        let (dist, trimmed) = count_distribution_of(probs, budget);
        assert_eq!(dist.len(), exact.len());
        assert!((0.0..=budget).contains(&trimmed), "trimmed {trimmed:e}");
        if trimmed == 0.0 {
            assert_eq!(bits(&dist), bits(exact), "nothing trimmed over {probs:?}");
        }
        let l1: f64 = dist.iter().zip(exact).map(|(a, b)| (a - b).abs()).sum();
        let rounding = 4.0 * probs.len() as f64 * f64::EPSILON;
        assert!(
            l1 <= trimmed + rounding,
            "L1 {l1:e} > trimmed {trimmed:e} + {rounding:e} over n = {}",
            probs.len()
        );
    }

    #[test]
    fn trimming_keeps_the_bulk_and_drops_the_tails() {
        // 2 000 tuples at p = 0.3: μ = 600, σ ≈ 20.5. The trimmed range
        // spans a few hundred counts around μ, not all 2 001.
        let probs = vec![0.3; 2_000];
        let (exact, _) = count_distribution_of(&probs, 0.0);
        let (dist, trimmed) = count_distribution_of(&probs, 2f64.powi(-60));
        assert!(trimmed > 0.0 && trimmed <= 2f64.powi(-60));
        let live = dist.iter().filter(|&&d| d != 0.0).count();
        assert!(live < 600, "{live} live entries");
        assert!(dist[600] > 0.0 && dist[0] == 0.0 && dist[2_000] == 0.0);
        assert_trim_within_budget(&probs, 2f64.powi(-60), &exact);
        // A budget of 1 may trim everything but one entry.
        let (dist, trimmed) = count_distribution_of(&probs, 1.0);
        assert_eq!(dist.iter().filter(|&&d| d != 0.0).count(), 1);
        assert!(trimmed < 1.0);
    }

    #[test]
    fn shared_moments_and_event_kernels() {
        let probs = [0.25, 0.5, 1.0, 0.0];
        assert_eq!(count_moments_of(&probs), (1.75, 0.1875 + 0.25));
        assert_eq!(sum_from_zero(&[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(event_probability_of(&probs), 1.0);
        assert_eq!(event_probability_of(&[1e-300]), 1e-300);
        assert_eq!(event_probability_of(&[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            event_probability_of(&[0.0, 0.0]).to_bits(),
            0.0f64.to_bits()
        );
        assert!((event_probability_of(&[0.5, 0.2]) - 0.6).abs() < 1e-15);
    }

    fn assert_sum_matches(units: &[(f64, i64)]) {
        let span = units.iter().map(|&(_, u)| u.unsigned_abs() as usize).sum();
        let neg = units.iter().map(|&(_, u)| u.min(0)).sum();
        assert_eq!(
            bits(&fold_units(units, span, neg)),
            bits(&fold_units_reference(units, span, neg)),
            "sum DP over {units:?}"
        );
    }

    proptest::proptest! {
        #[test]
        fn count_dp_matches_the_in_place_fold_bit_for_bit(
            picks in proptest::collection::vec((0usize..40, 0.0f64..=1.0), 0..300),
        ) {
            assert_count_matches(&with_edges(&picks));
        }

        #[test]
        fn trimmed_count_dp_stays_within_its_trimmed_mass(
            probs in proptest::collection::vec(0.0f64..=1.0, 0..400),
            shift in 0i32..=70,
        ) {
            let (exact, _) = count_distribution_of(&probs, 0.0);
            assert_trim_within_budget(&probs, 2f64.powi(-shift), &exact);
        }

        #[test]
        fn sum_dp_matches_the_single_loop_fold_bit_for_bit(
            picks in proptest::collection::vec((0usize..40, 0.0f64..=1.0, -9i64..=9), 0..80),
        ) {
            let probs = with_edges(&picks.iter().map(|&(i, p, _)| (i, p)).collect::<Vec<_>>());
            let units: Vec<(f64, i64)> =
                probs.into_iter().zip(picks.iter().map(|&(.., u)| u)).collect();
            assert_sum_matches(&units);
        }
    }

    #[test]
    fn sum_dp_matches_the_reference_on_wide_shifts_and_zero_units() {
        // A unit wider than the live range, zero units (non-zero values
        // that quantise to 0) and sign changes.
        assert_sum_matches(&[
            (0.5, 0),
            (0.3, 7),
            (0.25, -1),
            (0.9, 0),
            (0.1, -12),
            (1.0, 3),
        ]);
        assert_sum_matches(&[(0.5, -5), (2f64.powi(-53), 40), (1.0 - 2f64.powi(-53), -40)]);
    }

    /// About 10^5 random vectors, most short and a few up to n = 2 000,
    /// through both DPs and their references. Too slow for a debug
    /// build: `cargo test --release -p tspdb-probdb --lib -- --ignored
    /// kernel_equivalence_sweep`.
    #[test]
    #[ignore = "release-only sweep; run with --ignored kernel_equivalence_sweep"]
    fn kernel_equivalence_sweep() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let edges = edge_probabilities();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..100_000u32 {
            // Lengths spread over octaves so long vectors stay rare.
            let octave = rng.gen_range(0u32..12);
            let n = rng.gen_range(0usize..=1 << octave).min(2_000);
            let probs: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0usize..4) {
                    0 => edges[rng.gen_range(0..edges.len())],
                    _ => rng.gen_range(0.0f64..=1.0),
                })
                .collect();
            assert_count_matches(&probs);
            if case % 4 == 0 {
                let units: Vec<(f64, i64)> = probs
                    .iter()
                    .take(200)
                    .map(|&p| (p, rng.gen_range(-16i64..=16)))
                    .collect();
                assert_sum_matches(&units);
            }
        }
    }
}
