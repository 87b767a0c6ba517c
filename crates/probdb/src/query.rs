//! Probabilistic query operators over tuple-independent relations.
//!
//! The point of creating a probabilistic database (paper, Introduction) is
//! that downstream probabilistic queries can then run against it. This
//! module holds the predicate types the SQL layer and planner share, plus
//! whole-relation operators over them: selection, threshold, event
//! probability and most-probable-per-group (the expected count and sum
//! are [`ProbTable`]'s own totals) — enough to
//! express the paper's motivating query ("the probability that Alice
//! could be found in each of the four rooms"). The planned `SELECT` path,
//! `TOP` ordering included, runs through `crate::scan`.

use crate::error::DbError;
use crate::scan;
use crate::table::ProbTable;
use crate::value::{Value, ValueKey};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// Comparison operator of a simple predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

impl CmpOp {
    /// Evaluates the operator against an ordering outcome.
    pub(crate) fn eval(self, ord: Option<Ordering>) -> bool {
        match (self, ord) {
            (CmpOp::Eq, Some(Ordering::Equal)) => true,
            (CmpOp::Ne, Some(o)) => o != Ordering::Equal,
            (CmpOp::Lt, Some(Ordering::Less)) => true,
            (CmpOp::Le, Some(Ordering::Less | Ordering::Equal)) => true,
            (CmpOp::Gt, Some(Ordering::Greater)) => true,
            (CmpOp::Ge, Some(Ordering::Greater | Ordering::Equal)) => true,
            _ => false,
        }
    }
}

/// A single `column op literal` comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Column name (the pseudo-column `prob` addresses the tuple
    /// probability on probabilistic relations).
    pub column: String,
    /// Operator.
    pub op: CmpOp,
    /// Literal right-hand side.
    pub value: Value,
}

impl Comparison {
    /// Builds a comparison.
    pub fn new(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Comparison {
            column: column.into(),
            op,
            value: value.into(),
        }
    }
}

/// A conjunction of comparisons (the paper's `WHERE t >= 1 AND t <= 3`
/// shape). An empty conjunction accepts every row.
pub type Conjunction = Vec<Comparison>;

/// Name of the pseudo-column addressing tuple probabilities in predicates
/// over probabilistic relations.
pub(crate) const PROB_PSEUDO_COLUMN: &str = "prob";

/// Evaluates a conjunction against one row (with optional tuple probability
/// for the `prob` pseudo-column) — the one-row **reference** semantics.
/// Execution goes through the batch kernel ([`crate::scan`]), which is
/// property-tested to reproduce this function bit for bit, error order
/// included.
#[cfg(test)]
pub(crate) fn eval_conjunction(
    schema: &crate::schema::Schema,
    row: &[Value],
    prob: Option<f64>,
    pred: &Conjunction,
) -> Result<bool, DbError> {
    for cmp in pred {
        let ok = if let (PROB_PSEUDO_COLUMN, Some(p)) = (cmp.column.as_str(), prob) {
            cmp.op.eval(Value::Float(p).compare(&cmp.value))
        } else {
            let i = schema.index_of(&cmp.column)?;
            cmp.op.eval(row[i].compare(&cmp.value))
        };
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Indices of the tuples of `table` satisfying the predicate — the batch
/// kernel over the whole relation, shared by every operator below.
pub(crate) fn matching_rows(table: &ProbTable, pred: &Conjunction) -> Result<Vec<usize>, DbError> {
    Ok(scan::select(&table.batch(), pred, None)?.rows().collect())
}

/// The probabilities of the tuples of `table` satisfying the predicate.
pub(crate) fn matching_probs(table: &ProbTable, pred: &Conjunction) -> Result<Vec<f64>, DbError> {
    let mut probs = Vec::new();
    scan::select(&table.batch(), pred, None)?.extend(table.probs(), &mut probs);
    Ok(probs)
}

/// Selection over a probabilistic relation: rows keep their probabilities
/// (conditioning on deterministic attributes does not change tuple
/// marginals in the tuple-independent model).
pub fn select_prob(table: &ProbTable, pred: &Conjunction) -> Result<ProbTable, DbError> {
    Ok(table.take(&matching_rows(table, pred)?))
}

/// Threshold query: tuples whose probability is at least `tau`.
pub fn threshold(table: &ProbTable, tau: f64) -> Result<ProbTable, DbError> {
    if !(0.0..=1.0).contains(&tau) {
        return Err(DbError::InvalidProbability(tau));
    }
    let rows = scan::select(&table.batch(), &[], Some(tau))?;
    Ok(table.take(&rows.rows().collect::<Vec<_>>()))
}

/// Probability that at least one tuple satisfying the predicate exists:
/// `1 − Π(1 − p_i)` over matching tuples (tuple independence), computed
/// as `−expm1(Σ ln_1p(−p_i))` by the kernel the row-level `WITH WORLDS`
/// answer runs.
pub fn event_probability(table: &ProbTable, pred: &Conjunction) -> Result<f64, DbError> {
    let probs = matching_probs(table, pred)?;
    Ok(crate::aggregates::event_probability_of(&probs))
}

/// For each distinct value of `group_column`, the most probable tuple —
/// e.g. "the most likely room per timestamp" in the paper's Fig. 1 example.
pub fn most_probable_per_group(
    table: &ProbTable,
    group_column: &str,
) -> Result<ProbTable, DbError> {
    let group = table
        .column(table.schema().index_of(group_column)?)
        .values();
    let mut best: BTreeMap<ValueKey<'_>, (usize, f64)> = BTreeMap::new();
    for (i, &p) in table.probs().iter().enumerate() {
        match best.get(&group.key(i)) {
            Some(&(_, bp)) if bp >= p => {}
            _ => {
                best.insert(group.key(i), (i, p));
            }
        }
    }
    let mut picks: Vec<usize> = best.into_values().map(|(i, _)| i).collect();
    picks.sort_unstable();
    Ok(table.take(&picks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::ColumnType;

    /// The paper's Fig. 1 `prob_view`: per-room probabilities at two times.
    fn alice_view() -> ProbTable {
        let schema = Schema::of(&[("time", ColumnType::Int), ("room", ColumnType::Int)]);
        let mut p = ProbTable::new("prob_view", schema);
        for (t, room, prob) in [
            (1, 1, 0.5),
            (1, 2, 0.1),
            (1, 3, 0.3),
            (1, 4, 0.1),
            (2, 1, 0.2),
            (2, 2, 0.4),
            (2, 3, 0.1),
            (2, 4, 0.3),
        ] {
            p.insert(vec![Value::Int(t), Value::Int(room)], prob)
                .unwrap();
        }
        p
    }

    #[test]
    fn selection_keeps_probabilities() {
        let v = alice_view();
        let pred = vec![Comparison::new("time", CmpOp::Eq, 1i64)];
        let at1 = select_prob(&v, &pred).unwrap();
        assert_eq!(at1.len(), 4);
        assert!((at1.expected_count() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prob_pseudo_column_filters() {
        let v = alice_view();
        let pred = vec![Comparison::new(PROB_PSEUDO_COLUMN, CmpOp::Ge, 0.3)];
        let likely = select_prob(&v, &pred).unwrap();
        assert_eq!(likely.len(), 4); // 0.5, 0.3, 0.4, 0.3
        assert!(likely.probs().iter().all(|&p| p >= 0.3));
    }

    #[test]
    fn threshold_keeps_confident_tuples() {
        let v = alice_view();
        let th = threshold(&v, 0.4).unwrap();
        assert_eq!(th.len(), 2); // 0.5 and 0.4
        assert!(threshold(&v, 1.2).is_err());
    }

    #[test]
    fn event_probability_combines_independent_tuples() {
        let v = alice_view();
        // P(Alice is in room 1 at time 1 or 2) = 1 − (1−0.5)(1−0.2) = 0.6.
        let pred = vec![Comparison::new("room", CmpOp::Eq, 1i64)];
        let p = event_probability(&v, &pred).unwrap();
        assert!((p - 0.6).abs() < 1e-12);
        // Empty predicate matches all 8 tuples.
        let all = event_probability(&v, &vec![]).unwrap();
        assert!(all > 0.9);
    }

    #[test]
    fn event_probability_keeps_tiny_and_certain_tuples() {
        let schema = Schema::of(&[("x", ColumnType::Int)]);
        let table = |probs: &[f64]| {
            let mut t = ProbTable::new("t", schema.clone());
            for &p in probs {
                t.insert(vec![Value::Int(1)], p).unwrap();
            }
            t
        };
        // 1 − (1 − 1e-300) rounds to 0; the log form keeps the tuple.
        assert_eq!(
            event_probability(&table(&[1e-300]), &vec![]).unwrap(),
            1e-300
        );
        assert_eq!(event_probability(&table(&[1.0]), &vec![]).unwrap(), 1.0);
        assert_eq!(
            event_probability(&table(&[0.3, 1.0]), &vec![]).unwrap(),
            1.0
        );
        let empty = event_probability(&table(&[]), &vec![]).unwrap();
        assert_eq!(empty.to_bits(), 0.0f64.to_bits());
        // A predicate that matches nothing is the empty domain too.
        let none = vec![Comparison::new("x", CmpOp::Eq, 2i64)];
        assert_eq!(event_probability(&table(&[0.5]), &none).unwrap(), 0.0);
    }

    #[test]
    fn expected_sum_weights_by_probability() {
        let v = alice_view();
        let pred = vec![Comparison::new("time", CmpOp::Eq, 1i64)];
        let at1 = select_prob(&v, &pred).unwrap();
        // E[room number] at time 1: 1·0.5 + 2·0.1 + 3·0.3 + 4·0.1 = 2.0.
        let e = at1.expected_sum("room").unwrap();
        assert!((e - 2.0).abs() < 1e-12);
    }

    #[test]
    fn most_probable_per_group_picks_argmax() {
        let v = alice_view();
        let best = most_probable_per_group(&v, "time").unwrap();
        assert_eq!(best.len(), 2);
        // Time 1 → room 1 (0.5); time 2 → room 2 (0.4).
        let rows: Vec<(i64, i64, f64)> = best
            .iter()
            .map(|(r, p)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap(), p))
            .collect();
        assert!(rows.contains(&(1, 1, 0.5)));
        assert!(rows.contains(&(2, 2, 0.4)));
    }

    #[test]
    fn comparisons_cover_all_operators() {
        let schema = Schema::of(&[("x", ColumnType::Int)]);
        let row = vec![Value::Int(5)];
        let check = |op, lit: i64| {
            eval_conjunction(&schema, &row, None, &vec![Comparison::new("x", op, lit)]).unwrap()
        };
        assert!(check(CmpOp::Eq, 5));
        assert!(check(CmpOp::Ne, 4));
        assert!(check(CmpOp::Lt, 6));
        assert!(check(CmpOp::Le, 5));
        assert!(check(CmpOp::Gt, 4));
        assert!(check(CmpOp::Ge, 5));
        assert!(!check(CmpOp::Eq, 4));
    }

    #[test]
    fn unknown_column_in_predicate_errors() {
        let v = alice_view();
        let pred = vec![Comparison::new("nope", CmpOp::Eq, 1i64)];
        assert!(matches!(
            select_prob(&v, &pred),
            Err(DbError::UnknownColumn(_))
        ));
    }
}
