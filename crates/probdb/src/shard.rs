//! Time-range sharding of probabilistic relations.
//!
//! A [`ShardMap`] splits one relation's tuple index space `0..n` into
//! contiguous shards and records, per shard, the min/max of every numeric
//! column plus the tuple-probability range. Scans fan out across shards
//! through the fork-join helpers and concatenate their surviving indices
//! **in shard order**, so the merged restriction is bit-identical to the
//! sequential one — the same batch-ordered-reduction determinism pattern
//! the possible-worlds executor uses. Shards whose recorded bounds cannot
//! intersect the query's predicate (or its `THRESHOLD`) are pruned
//! without touching a single tuple.
//!
//! Shards are contiguous *index* ranges, never a reordering: tuple order
//! is part of the engine's determinism contract (`TOP` ties, MC sampling
//! order, wire encoding all depend on it). For time-series views — whose
//! tuples are materialised in time order — contiguous index ranges *are*
//! time ranges, which is what makes pruning on the time column effective.

use crate::column::ColumnSlice;
use crate::error::DbError;
use crate::plan::PhysicalPlan;
use crate::query::{CmpOp, Comparison, PROB_PSEUDO_COLUMN};
use crate::schema::Schema;
use crate::table::ProbTable;
use crate::value::ColumnType;
use std::collections::BTreeMap;
use std::ops::Range;

/// Largest magnitude for which pruning arithmetic is trusted: every
/// integer below 2⁵³ is exactly representable as an `f64`, so interval
/// analysis agrees with the engine's value comparisons. Bounds or
/// literals at or beyond this magnitude disable pruning (never
/// correctness — pruning is an optimisation).
const EXACT_F64: f64 = 9_007_199_254_740_992.0; // 2^53

/// Inclusive value range of one column within one shard, over the
/// non-NaN values (a NaN attribute never satisfies any comparison, so
/// excluding it from the bounds keeps pruning sound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnBounds {
    /// Smallest value in the shard.
    pub min: f64,
    /// Largest value in the shard.
    pub max: f64,
}

impl ColumnBounds {
    fn of(values: impl Iterator<Item = f64>) -> ColumnBounds {
        let mut b = ColumnBounds {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        for v in values {
            // f64::min/max ignore NaN operands, which is exactly the
            // soundness we want (see the type doc).
            b.min = b.min.min(v);
            b.max = b.max.max(v);
        }
        b
    }

    /// Whether `value CMP literal` is unsatisfiable for every value in
    /// this range. Conservative: answers `false` whenever the bounds or
    /// the literal leave exact `f64` territory.
    fn unsatisfiable(&self, op: CmpOp, lit: f64) -> bool {
        if !(self.min.is_finite() && self.max.is_finite() && lit.is_finite()) {
            return false;
        }
        if self.min.abs() >= EXACT_F64 || self.max.abs() >= EXACT_F64 || lit.abs() >= EXACT_F64 {
            return false;
        }
        match op {
            CmpOp::Eq => lit < self.min || lit > self.max,
            CmpOp::Ne => self.min == self.max && self.min == lit,
            CmpOp::Lt => !(self.min < lit),
            CmpOp::Le => !(self.min <= lit),
            CmpOp::Gt => !(self.max > lit),
            CmpOp::Ge => !(self.max >= lit),
        }
    }
}

/// One shard: a contiguous tuple-index range plus the per-column bounds
/// a scan uses to decide whether the shard can be skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    rows: Range<usize>,
    columns: BTreeMap<String, ColumnBounds>,
    prob: ColumnBounds,
}

impl Shard {
    /// The tuple indices this shard covers.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Value bounds of one numeric column (`None` for text or unknown
    /// columns).
    pub fn bounds(&self, column: &str) -> Option<&ColumnBounds> {
        self.columns.get(column)
    }

    /// Bounds of the tuple probabilities in this shard.
    pub fn prob_bounds(&self) -> &ColumnBounds {
        &self.prob
    }

    /// Whether the whole shard can be skipped for this plan: no tuple in
    /// it can survive the `WHERE` conjunction and `THRESHOLD`.
    ///
    /// Soundness hinges on matching the sequential evaluator's *error*
    /// behaviour, not just its accept set: a row is rejected at the first
    /// failing comparison, and later comparisons — including ones whose
    /// column would fail to resolve — are never evaluated. So this only
    /// prunes by comparison *i* when every comparison before *i*
    /// resolves, and only prunes by `THRESHOLD` when the whole
    /// conjunction resolves (an unresolvable column would have errored
    /// during the filter the threshold runs after).
    pub(crate) fn is_prunable(&self, schema: &Schema, plan: &PhysicalPlan) -> bool {
        let resolves = |cmp: &Comparison| {
            cmp.column == PROB_PSEUDO_COLUMN || schema.index_of(&cmp.column).is_ok()
        };
        if let Some(tau) = plan.threshold {
            if (0.0..=1.0).contains(&tau)
                && plan.predicate.iter().all(resolves)
                && self.prob.max < tau
            {
                return true;
            }
        }
        for cmp in &plan.predicate {
            if !resolves(cmp) {
                return false;
            }
            let bounds = if cmp.column == PROB_PSEUDO_COLUMN {
                Some(&self.prob)
            } else {
                self.columns.get(&cmp.column)
            };
            let (Some(bounds), Some(lit)) = (bounds, cmp.value.as_f64()) else {
                continue;
            };
            if bounds.unsatisfiable(cmp.op, lit) {
                return true;
            }
        }
        false
    }
}

/// The shard layout of one probabilistic relation: contiguous index
/// ranges split along (and carrying bounds for) the relation's time
/// column, plus bounds for every other numeric column and the tuple
/// probabilities.
///
/// Built whole on every write (relations are registered whole) and held
/// behind an `Arc` by the catalog, σ-cache style: readers clone the
/// snapshot lock-free and never observe a half-rebuilt map.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMap {
    column: String,
    relation_rows: usize,
    shards: Vec<Shard>,
}

impl ShardMap {
    /// Splits `t` into at most `count` contiguous near-equal shards
    /// (sizes differ by at most one tuple — the fork-join helpers' split
    /// recipe) keyed on `column`, recording per-shard bounds for every
    /// numeric column. Errors when the column is unknown or text, or
    /// when `count` is zero.
    pub fn build(t: &ProbTable, column: &str, count: usize) -> Result<ShardMap, DbError> {
        if count == 0 {
            return Err(DbError::Plan("shard count must be at least 1".into()));
        }
        if t.schema().type_of(column)? == ColumnType::Text {
            return Err(DbError::Plan(format!(
                "cannot shard {:?} by text column {column:?}; sharding needs a numeric \
                 (time) column",
                t.name()
            )));
        }
        let numeric: Vec<(usize, String)> = (0..t.schema().arity())
            .filter_map(|c| {
                let (name, ty) = t.schema().column(c);
                (ty != ColumnType::Text).then(|| (c, name.to_string()))
            })
            .collect();
        let n = t.len();
        let shard_count = count.min(n).max(1);
        let base = n / shard_count;
        let rem = n % shard_count;
        let mut shards = Vec::with_capacity(shard_count);
        let mut start = 0usize;
        for i in 0..shard_count {
            let len = base + usize::from(i < rem);
            let rows = start..start + len;
            start += len;
            let columns = numeric
                .iter()
                .map(|(c, name)| {
                    let bounds = match t.column(*c).values().slice(rows.clone()) {
                        ColumnSlice::Int(v) => ColumnBounds::of(v.iter().map(|&v| v as f64)),
                        ColumnSlice::Float(v) => ColumnBounds::of(v.iter().copied()),
                        ColumnSlice::Text(_) => unreachable!("numeric columns only"),
                    };
                    (name.clone(), bounds)
                })
                .collect();
            let prob = ColumnBounds::of(t.probs()[rows.clone()].iter().copied());
            shards.push(Shard {
                rows,
                columns,
                prob,
            });
        }
        Ok(ShardMap {
            column: column.to_string(),
            relation_rows: n,
            shards,
        })
    }

    /// The column the relation is sharded along.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in index (= time, for time-ordered views) order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Whether this map still describes `t` (relations are replaced
    /// whole, so a length match means the map was built from these
    /// tuples). A stale map is simply ignored by the scan.
    pub fn covers(&self, t: &ProbTable) -> bool {
        self.relation_rows == t.len()
    }

    /// The deterministic Monte-Carlo seed of one shard, derived from a
    /// clause seed with the same SplitMix64 mixer the executor uses for
    /// per-group/per-bucket seeds. Today's scatter-gather runs sampling
    /// once over the merged (shard-ordered) domain, so results stay
    /// bit-identical to unsharded execution; this hook is what a future
    /// per-shard sampling fan-out would key its streams on.
    pub fn shard_seed(&self, clause_seed: u64, shard: usize) -> u64 {
        crate::worlds::mix_seed(clause_seed, shard as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PhysicalAction, PhysicalPlan};
    use crate::schema::Schema;
    use crate::value::Value;

    fn view(n: usize) -> ProbTable {
        let schema = Schema::of(&[("t", ColumnType::Int), ("r", ColumnType::Float)]);
        let mut v = ProbTable::new("v", schema);
        for i in 0..n {
            v.insert(
                vec![Value::Int(i as i64), Value::Float(i as f64 * 0.5)],
                ((i % 10) as f64 + 0.5) / 11.0,
            )
            .unwrap();
        }
        v
    }

    fn scan_plan(pred: Vec<Comparison>, threshold: Option<f64>) -> PhysicalPlan {
        PhysicalPlan {
            table: "v".into(),
            predicate: pred,
            threshold,
            top: None,
            action: PhysicalAction::Rows {
                columns: vec![],
                order_by: None,
                limit: None,
            },
        }
    }

    #[test]
    fn shards_cover_the_index_space_in_order() {
        let v = view(103);
        let map = ShardMap::build(&v, "t", 8).unwrap();
        assert_eq!(map.shard_count(), 8);
        let mut next = 0usize;
        for s in map.shards() {
            assert_eq!(s.rows().start, next);
            next = s.rows().end;
        }
        assert_eq!(next, 103);
        assert!(map.covers(&v));
    }

    #[test]
    fn bounds_track_time_ranges() {
        let v = view(100);
        let map = ShardMap::build(&v, "t", 4).unwrap();
        let first = map.shards()[0].bounds("t").unwrap();
        assert_eq!((first.min, first.max), (0.0, 24.0));
        let last = map.shards()[3].bounds("t").unwrap();
        assert_eq!((last.min, last.max), (75.0, 99.0));
    }

    #[test]
    fn pruning_respects_predicate_and_threshold() {
        let v = view(100);
        let map = ShardMap::build(&v, "t", 4).unwrap();
        let schema = v.schema();
        // t >= 80 only intersects the last shard.
        let plan = scan_plan(vec![Comparison::new("t", CmpOp::Ge, 80i64)], None);
        let pruned: Vec<bool> = map
            .shards()
            .iter()
            .map(|s| s.is_prunable(schema, &plan))
            .collect();
        assert_eq!(pruned, vec![true, true, true, false]);
        // Probabilities cycle within each shard, so a THRESHOLD above
        // every shard's max prunes everything.
        let plan = scan_plan(vec![], Some(0.99));
        assert!(map.shards().iter().all(|s| s.is_prunable(schema, &plan)));
        // An unresolvable column disables pruning entirely (the filter
        // must run and raise the same error the sequential path would).
        let plan = scan_plan(
            vec![
                Comparison::new("bogus", CmpOp::Ge, 0i64),
                Comparison::new("t", CmpOp::Ge, 1_000i64),
            ],
            None,
        );
        assert!(map.shards().iter().all(|s| !s.is_prunable(schema, &plan)));
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let v = view(10);
        assert!(ShardMap::build(&v, "t", 0).is_err());
        assert!(ShardMap::build(&v, "missing", 4).is_err());
        let schema = Schema::of(&[("tag", ColumnType::Text)]);
        let mut text = ProbTable::new("txt", schema);
        text.insert(vec![Value::Text("a".into())], 0.5).unwrap();
        assert!(ShardMap::build(&text, "tag", 2).is_err());
    }

    #[test]
    fn shard_seeds_are_deterministic_and_distinct() {
        let v = view(64);
        let map = ShardMap::build(&v, "t", 8).unwrap();
        let seeds: Vec<u64> = (0..8).map(|i| map.shard_seed(7, i)).collect();
        assert_eq!(
            seeds,
            (0..8).map(|i| map.shard_seed(7, i)).collect::<Vec<_>>()
        );
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }
}
