//! The scan operator and its fused operators against row-at-a-time
//! references.
//!
//! One harness ([`everywhere`]) runs a restriction through every way the
//! scan operator can be fed — resident as one batch, resident narrowed by
//! binary search and split into 1, 2, 7 and 64 concurrently restricted
//! segments, and the evicted batch stream in chunks of 1, 5, 1000 and a
//! random size, directly and behind a [`Database`] — and holds each to the
//! one-row reference [`eval_conjunction`]. [`statements_agree`] does the
//! same for whole statements over a probabilistic relation — `TOP`,
//! `ORDER BY … LIMIT`, windows, `GROUP BY`, `HAVING` — against a
//! reference that materialises the restriction and then sorts, groups and
//! folds it; the deterministic half holds 110 statements to the same kind
//! of reference.

use super::*;
use crate::aggregates::{count_distribution_of, sum_distribution_of};
use crate::catalog::{Database, QueryOutput, RelationSnapshot, ScanSource};
use crate::plan::{LogicalPlan, PhysicalAction, PlannedQuery, StrategyKind};
use crate::query::{eval_conjunction, Comparison, Conjunction};
use crate::sql::AggFunc;
use crate::value::ValueKey;
use proptest::prelude::*;
use std::sync::Arc;

const TWO53: i64 = 1 << 53;
/// A nanosecond timestamp of today's order: the f64 ulp there is 256.
const NANOS: i64 = 1_700_000_000_000_000_000;
/// `int_pool().len()`.
const INTS: usize = 14;

fn int_pool() -> Vec<i64> {
    vec![
        0,
        3,
        -1,
        TWO53,
        TWO53 + 1,
        TWO53 - 1,
        -TWO53 - 1,
        i64::MAX,
        i64::MIN,
        -TWO53 + 1,
        NANOS,
        NANOS + 1,
        -NANOS,
        -NANOS - 1,
    ]
}

fn float_pool() -> Vec<f64> {
    vec![
        f64::NAN,
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.5,
        2.5,
        TWO53 as f64,
        -1.0,
        3.0,
    ]
}

const TEXT_POOL: [&str; 4] = ["a", "b", "", "ab"];
const COLUMN_POOL: [&str; 6] = ["i", "f", "s", "t", "prob", "nope"];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Int, float and text literals: int-vs-float-column, float-vs-int-column
/// and text-vs-number all come up.
fn literal_pool() -> Vec<Value> {
    int_pool()
        .into_iter()
        .map(Value::Int)
        .chain(float_pool().into_iter().map(Value::Float))
        .chain(TEXT_POOL.iter().map(|s| Value::from(*s)))
        .collect()
}

fn schema() -> Schema {
    Schema::of(&[
        ("i", ColumnType::Int),
        ("f", ColumnType::Float),
        ("s", ColumnType::Text),
        ("t", ColumnType::Int),
    ])
}

/// `(i, f, s, t step, prob)` picks → a relation whose `t` is ascending
/// (with repeats), the shape of an Ω-view's time column.
fn table_of(rows: &[(usize, usize, usize, i64, f64)]) -> ProbTable {
    let (ints, floats) = (int_pool(), float_pool());
    let mut table = ProbTable::new("v", schema());
    let mut t = -3;
    for &(i, f, s, step, p) in rows {
        t += step;
        table
            .insert(
                vec![
                    Value::Int(ints[i]),
                    Value::Float(floats[f]),
                    Value::from(TEXT_POOL[s]),
                    Value::Int(t),
                ],
                p,
            )
            .unwrap();
    }
    assert!(
        table.column(3).is_ascending(),
        "t feeds the sorted fast path"
    );
    table
}

fn conjunction_of(picks: &[(usize, usize, usize)]) -> Conjunction {
    let literals = literal_pool();
    picks
        .iter()
        .map(|&(column, op, lit)| Comparison {
            column: COLUMN_POOL[column].to_string(),
            op: OPS[op],
            value: literals[lit].clone(),
        })
        .collect()
}

fn plan_of(predicate: Conjunction, threshold: Option<f64>) -> PhysicalPlan {
    PhysicalPlan {
        table: "v".into(),
        predicate,
        threshold,
        top: None,
        action: PhysicalAction::Rows {
            columns: Vec::new(),
            order_by: None,
            limit: None,
        },
    }
}

/// The one-row reference: `eval_conjunction` per tuple in row order (the
/// first error wins), then the threshold.
fn reference(t: &ProbTable, plan: &PhysicalPlan) -> Result<Vec<usize>, DbError> {
    let mut keep = Vec::new();
    for (i, (row, p)) in t.iter().enumerate() {
        if eval_conjunction(t.schema(), &row, Some(p), &plan.predicate)?
            && plan.threshold.is_none_or(|tau| p >= tau)
        {
            keep.push(i);
        }
    }
    Ok(keep)
}

/// A scan source serving one relation in batches of `chunk` rows — the
/// shape of the storage engine's leaf-at-a-time stream, without the disk.
#[derive(Debug)]
struct Chunked {
    relation: ProbTable,
    chunk: usize,
}

struct ChunkedStream {
    relation: ProbTable,
    chunk: usize,
    next: usize,
}

impl BatchStream for ChunkedStream {
    fn schema(&self) -> &Schema {
        self.relation.schema()
    }

    fn probabilistic(&self) -> bool {
        true
    }

    fn size_hint(&self) -> usize {
        self.relation.len()
    }

    fn next_batch(&mut self) -> Result<Option<Batch<'_>>, DbError> {
        if self.next >= self.relation.len() {
            return Ok(None);
        }
        let end = (self.next + self.chunk).min(self.relation.len());
        let batch = self.relation.batch().slice(self.next..end);
        self.next = end;
        Ok(Some(batch))
    }
}

impl Chunked {
    fn stream(&self) -> ChunkedStream {
        ChunkedStream {
            relation: self.relation.clone(),
            chunk: self.chunk,
            next: 0,
        }
    }
}

impl ScanSource for Chunked {
    fn scan(&self, name: &str) -> Result<Option<Relation>, DbError> {
        Ok((name == self.relation.name()).then(|| Relation::Probabilistic(self.relation.clone())))
    }

    fn scan_stream(&self, name: &str) -> Result<Option<Box<dyn BatchStream>>, DbError> {
        Ok((name == self.relation.name()).then(|| Box::new(self.stream()) as Box<dyn BatchStream>))
    }

    fn names(&self) -> Vec<String> {
        vec![self.relation.name().to_string()]
    }
}

/// Floats print their sign and NaN-ness, so `Debug` text is a bit-level
/// comparison that still lets NaN equal NaN.
fn shown<T: std::fmt::Debug>(x: &T) -> String {
    format!("{x:?}")
}

/// The global indices of the rows `source`'s restriction keeps, fanned
/// over `segments` above `min_rows`.
fn kept(
    source: Source<'_>,
    plan: &PhysicalPlan,
    segments: usize,
    min_rows: usize,
) -> Result<Vec<usize>, DbError> {
    let mut keep = Vec::new();
    restrict(source, plan, segments, min_rows, &mut |batch, sel| {
        keep.extend(sel.rows().map(|i| batch.offset() + i));
    })?;
    Ok(keep)
}

/// [`kept`] over `t` resident, as one batch.
fn resident_kept(t: &ProbTable, plan: &PhysicalPlan) -> Result<Vec<usize>, DbError> {
    let relation = Relation::Probabilistic(t.clone());
    kept(Source::Resident(&relation), plan, 1, FAN_OUT_MIN_ROWS)
}

/// Leaf sizes for an evicted twin of an `n`-row relation: one row, a
/// few, more than there are, and one picked from `salt`.
fn chunk_sizes(n: usize, salt: &str) -> [usize; 4] {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (n, salt).hash(&mut h);
    [1, 5, 1000, 1 + (h.finish() as usize) % (n + 2)]
}

/// Runs `plan`'s restriction over `t` through every scan source and
/// segment width and holds each to the row-at-a-time reference.
fn everywhere(t: &ProbTable, plan: &PhysicalPlan) {
    let want = reference(t, plan);
    let relation = Relation::Probabilistic(t.clone());
    assert_eq!(
        shown(&kept(
            Source::Resident(&relation),
            plan,
            4,
            FAN_OUT_MIN_ROWS
        )),
        shown(&want),
        "resident, one batch: {plan}"
    );
    // The fan-out with its size floor at zero: the survivors, and the
    // first error, come back in index order at every width.
    for segments in [1, 2, 7, 64] {
        assert_eq!(
            shown(&kept(Source::Resident(&relation), plan, segments, 0)),
            shown(&want),
            "{segments} segments: {plan}"
        );
    }
    for chunk in chunk_sizes(t.len(), &plan.to_string()) {
        let mut stream = Chunked {
            relation: t.clone(),
            chunk,
        }
        .stream();
        assert_eq!(
            shown(&kept(Source::Stream(&mut stream), plan, 1, 0)),
            shown(&want),
            "batch stream in chunks of {chunk}: {plan}"
        );
    }

    // The same through the catalog: a resident relation and an evicted
    // one served by the stream.
    let planned = PlannedQuery {
        logical: LogicalPlan::Scan { table: "v".into() },
        physical: plan.clone(),
        strategy: StrategyKind::Exact {
            probabilistic_only: false,
        },
    };
    let want_output = want.map(|keep| QueryOutput::ProbRows(t.take(&keep)));
    let mut resident = Database::new();
    resident.register_prob_table(t.clone()).unwrap();
    let mut evicted = Database::new();
    evicted.attach_scan_source(Arc::new(Chunked {
        relation: t.clone(),
        chunk: 5,
    }));
    for (medium, db) in [("resident", &resident), ("evicted", &evicted)] {
        assert_eq!(
            shown(&db.execute_planned(&planned)),
            shown(&want_output),
            "Database, {medium}: {plan}"
        );
    }
}

proptest! {
    #[test]
    fn conjunction_kernel_equals_the_row_reference_on_every_path(
        rows in proptest::collection::vec(
            (0usize..9, 0usize..10, 0usize..4, 0i64..3, 0.0f64..=1.0),
            0..40,
        ),
        picks in proptest::collection::vec((0usize..6, 0usize..6, 0usize..23), 0..4),
        tau in 0usize..4,
    ) {
        let table = table_of(&rows);
        let tau = [None, Some(0.0), Some(0.5), Some(1.0)][tau];
        everywhere(&table, &plan_of(conjunction_of(&picks), tau));
    }

    #[test]
    fn range_predicates_on_the_ascending_column_equal_the_row_reference(
        rows in proptest::collection::vec(
            (0usize..INTS, 0usize..10, 0usize..4, 0i64..3, 0.0f64..=1.0),
            0..60,
        ),
        lo in -5i64..40,
        width in 0i64..30,
        ops in (0usize..6, 0usize..6),
    ) {
        // `t` ranges in both literal types, each operator on each side.
        let table = table_of(&rows);
        let predicate = vec![
            Comparison::new("t", OPS[ops.0], lo),
            Comparison::new("t", OPS[ops.1], (lo + width) as f64 + 0.5),
        ];
        everywhere(&table, &plan_of(predicate, None));
    }
}

#[test]
fn special_values_compare_like_value_compare() {
    // Every pooled cell against every pooled literal under every operator,
    // one conjunct at a time: ±2^53±1 and nanosecond-scale ints exactly
    // against ints and through `as f64` against floats, NaN on either
    // side, −0.0 = 0.0, ±∞, text against numbers.
    let rows: Vec<_> = (0..INTS)
        .map(|k| (k, k % 10, k % 4, 1, 0.1 * (k % 10) as f64))
        .collect();
    let table = table_of(&rows);
    for column in 0..COLUMN_POOL.len() - 1 {
        for op in 0..OPS.len() {
            for lit in 0..literal_pool().len() {
                let plan = plan_of(conjunction_of(&[(column, op, lit)]), None);
                assert_eq!(
                    shown(&resident_kept(&table, &plan)),
                    shown(&reference(&table, &plan)),
                    "{:?}",
                    plan.predicate
                );
            }
        }
    }
}

#[test]
fn int_comparisons_and_order_are_exact_beyond_2_pow_53() {
    // Three consecutive ints from a base where neighbours share one f64:
    // `t` ascending (the binary search), `i` descending (the loop).
    for base in [TWO53, NANOS, -NANOS - 2] {
        let mut table = ProbTable::new("v", schema());
        for k in 0..3 {
            let row = vec![
                Value::Int(base + 2 - k),
                Value::Float(0.0),
                Value::from("a"),
                Value::Int(base + k),
            ];
            table.insert(row, 0.5).unwrap();
        }
        for column in ["t", "i"] {
            let hits = |op, lit: i64| {
                let plan = plan_of(vec![Comparison::new(column, op, lit)], None);
                resident_kept(&table, &plan).unwrap().len()
            };
            let at = format!("{column} around {base}");
            assert_eq!(hits(CmpOp::Eq, base + 1), 1, "{at}");
            assert_eq!(hits(CmpOp::Ne, base + 1), 2, "{at}");
            assert_eq!(hits(CmpOp::Lt, base + 1), 1, "{at}");
            assert_eq!(hits(CmpOp::Le, base + 1), 2, "{at}");
            assert_eq!(hits(CmpOp::Gt, base), 2, "{at}");
            assert_eq!(hits(CmpOp::Ge, base + 2), 1, "{at}");
        }
        // `ORDER BY i` reverses insertion order; no two rows tie.
        let got = rendered(single(&table).query("SELECT t FROM v ORDER BY i"));
        let want: Vec<Value> = (0..3).rev().map(|k| Value::Int(base + k)).collect();
        assert!(
            got.contains(&shown(
                &want
                    .iter()
                    .map(|v| (vec![v.clone()], 0.5))
                    .collect::<Vec<_>>()
            )),
            "ORDER BY i around {base}: {got}"
        );
    }
}

#[test]
fn an_unknown_column_errors_only_when_a_row_reaches_it() {
    let rows: Vec<_> = (0..20).map(|_| (1, 5, 0, 1, 0.5)).collect();
    let table = table_of(&rows);
    // Conjunct 0 rejects every row: the unknown column is never reached.
    let unreached = vec![
        Comparison::new("t", CmpOp::Lt, -100i64),
        Comparison::new("nope", CmpOp::Eq, 1i64),
    ];
    // Conjunct 0 keeps rows, so conjunct 1 must resolve — and it is the
    // first unresolvable conjunct that is reported.
    let reached = vec![
        Comparison::new("t", CmpOp::Ge, 0i64),
        Comparison::new("nope", CmpOp::Eq, 1i64),
        Comparison::new("nada", CmpOp::Eq, 1i64),
    ];
    for (predicate, errors) in [(unreached, false), (reached, true)] {
        let plan = plan_of(predicate, Some(0.25));
        everywhere(&table, &plan);
        match resident_kept(&table, &plan) {
            Err(DbError::UnknownColumn(c)) => assert!(errors && c == "nope"),
            other => assert!(!errors, "{other:?}"),
        }
    }
    // An empty relation reaches nothing.
    everywhere(
        &table_of(&[]),
        &plan_of(vec![Comparison::new("nope", CmpOp::Eq, 1i64)], None),
    );
}

// ---------------------------------------------------------------------------
// Whole statements over a probabilistic relation
// ---------------------------------------------------------------------------

/// `t` as the one relation of a database.
fn single(t: &ProbTable) -> Database {
    let mut db = Database::new();
    db.register_prob_table(t.clone()).unwrap();
    db
}

/// An answer as text that compares floats bit for bit: a row result's
/// name, columns and tuples, or the aggregate result.
fn rendered(out: Result<QueryOutput, DbError>) -> String {
    shown(&out.map(|out| match out {
        QueryOutput::ProbRows(t) => {
            let names: Vec<&str> = t.schema().names().collect();
            shown(&(t.name(), names, t.iter().collect::<Vec<_>>()))
        }
        QueryOutput::Aggregate(a) => shown(&a),
        other => panic!("rows or an aggregate, not {}", other.variant_name()),
    }))
}

/// `sql`'s answer over `t` from every medium: resident at fork-join
/// widths 1 and 8, and evicted behind a stream at every [`chunk_sizes`].
fn media(t: &ProbTable, sql: &str) -> Vec<(String, String)> {
    match planned(sql) {
        Ok(p) => planned_media(t, &p),
        Err(e) => vec![("planner".into(), rendered(Err(e)))],
    }
}

/// [`media`] for a planned statement.
fn planned_media(t: &ProbTable, planned: &PlannedQuery) -> Vec<(String, String)> {
    let resident = single(t);
    let mut out = Vec::new();
    for width in [1, 8] {
        resident.set_worlds_threads(width);
        let answer = rendered(resident.execute_planned(planned));
        out.push((format!("resident, width {width}"), answer));
    }
    for chunk in chunk_sizes(t.len(), &planned.physical.to_string()) {
        let mut evicted = Database::new();
        evicted.attach_scan_source(Arc::new(Chunked {
            relation: t.clone(),
            chunk,
        }));
        let answer = rendered(evicted.execute_planned(planned));
        out.push((format!("evicted, chunks of {chunk}"), answer));
    }
    out
}

/// Holds `sql` over `t` on every medium to [`statement_reference`].
fn statements_agree(t: &ProbTable, sql: &str) {
    let planned = planned(sql).unwrap();
    let want = shown(&statement_reference(t, &planned.physical));
    for (medium, got) in planned_media(t, &planned) {
        assert_eq!(got, want, "{medium}: {sql}");
    }
}

/// `sql` over `t` the way the engine answered before its operators were
/// fused: restrict row by row ([`reference`]), keep the `TOP` k by a
/// stable sort, then stable-sort for `ORDER BY` and cut, or group through
/// an ordered map and fold each group's gathered columns from `+0.0` —
/// raising each error where that evaluation raised it.
fn statement_reference(t: &ProbTable, plan: &PhysicalPlan) -> Result<String, DbError> {
    let mut keep = reference(t, plan)?;
    if let Some(tau) = plan.threshold.filter(|tau| !(0.0..=1.0).contains(tau)) {
        return Err(DbError::InvalidProbability(tau));
    }
    let probs = t.probs();
    if let Some(k) = plan.top {
        keep.sort_by(|&a, &b| probs[b].total_cmp(&probs[a]));
        keep.truncate(k);
    }
    let schema = t.schema();
    let key = |column: &str, row: usize| match column {
        "prob" => ValueKey::Float(probs[row]),
        _ => t.column(schema.index_of(column).unwrap()).values().key(row),
    };
    let number = |c: usize, row: usize| t.column(c).values().value(row).as_f64().unwrap();
    let agg = match &plan.action {
        PhysicalAction::Rows {
            columns,
            order_by,
            limit,
        } => {
            if let Some((column, ascending)) = order_by {
                if column != "prob" {
                    schema.index_of(column)?;
                }
                keep.sort_by(|&a, &b| directed(*ascending, key(column, a).cmp(&key(column, b))));
            }
            keep.truncate(limit.unwrap_or(usize::MAX));
            let names: Vec<&str> = if columns.is_empty() {
                schema.names().collect()
            } else {
                columns.iter().map(String::as_str).collect()
            };
            let idx: Vec<usize> = names
                .iter()
                .map(|c| schema.index_of(c))
                .collect::<Result<_, _>>()?;
            let rows: Vec<(Vec<Value>, f64)> = keep
                .iter()
                .map(|&r| {
                    let row = idx.iter().map(|&c| t.column(c).values().value(r)).collect();
                    (row, probs[r])
                })
                .collect();
            return Ok(shown(&(t.name(), names, rows)));
        }
        PhysicalAction::Aggregate(agg) => agg,
    };
    let by: Vec<usize> = agg
        .group_by
        .iter()
        .map(|c| schema.index_of(c))
        .collect::<Result<_, _>>()?;
    let text = |c: usize| schema.column(c).1 == ColumnType::Text;
    let mismatch = |column: &str| DbError::TypeMismatch {
        column: column.to_string(),
        expected: ColumnType::Float,
        got: ColumnType::Text,
    };
    let window = match &agg.window {
        Some(w) => match schema.index_of(&w.column)? {
            c if text(c) && !keep.is_empty() => return Err(mismatch(&w.column)),
            c => Some((w, c)),
        },
        None => None,
    };
    let mut groups: BTreeMap<Vec<ValueKey<'_>>, Vec<usize>> = BTreeMap::new();
    if agg.window.is_none() && agg.group_by.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }
    for &row in &keep {
        let mut key = Vec::new();
        if let Some((w, c)) = window {
            key.push(ValueKey::Float(w.bucket_start(number(c, row))));
        }
        key.extend(by.iter().map(|&c| t.column(c).values().key(row)));
        groups.entry(key).or_default().push(row);
    }
    let mut wanted: Vec<&str> = agg
        .aggregates
        .iter()
        .filter_map(|a| a.column.as_deref())
        .collect();
    if let Some(h) = agg.having.as_ref().filter(|h| h.agg.func == AggFunc::Sum) {
        wanted.extend(h.agg.column.as_deref());
    }
    let mut out = Vec::new();
    for (index, (key, members)) in groups.into_iter().enumerate() {
        let mut columns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for col in &wanted {
            let c = schema.index_of(col)?;
            if text(c) && !members.is_empty() {
                return Err(mismatch(col));
            }
            let values = members
                .iter()
                .filter(|_| !text(c))
                .map(|&r| number(c, r))
                .collect();
            columns.entry(col).or_insert(values);
        }
        let p: Vec<f64> = members.iter().map(|&r| probs[r]).collect();
        let count = p.iter().fold(0.0, |acc, &p| acc + p);
        let sum = |col: &Option<String>| {
            let v = &columns[col.as_deref().unwrap()];
            p.iter().zip(v).fold(0.0, |acc, (&p, &v)| acc + p * v)
        };
        let values = agg
            .aggregates
            .iter()
            .map(|a| crate::plan::AggValue {
                value: match a.func {
                    AggFunc::Count => count,
                    AggFunc::Sum | AggFunc::Expected => sum(&a.column),
                    AggFunc::Avg if count == 0.0 => 0.0,
                    AggFunc::Avg => sum(&a.column) / count,
                },
                ci_half_width: None,
            })
            .collect();
        let (mut count_distribution, mut event_probability) = (None, None);
        if let Some(h) = &agg.having {
            let k = h.value.as_f64().unwrap();
            if h.agg.func == AggFunc::Sum {
                let v = &columns[h.agg.column.as_deref().unwrap()];
                event_probability = Some(sum_distribution_of(&p, v)?.tail(h.op, k));
            } else {
                let dist = count_distribution_of(&p, 0.0).0;
                let mut mass = 0.0;
                for (c, &m) in dist.iter().enumerate() {
                    if h.op.eval((c as f64).partial_cmp(&k)) {
                        mass += m;
                    }
                }
                event_probability = Some(mass.clamp(0.0, 1.0));
                count_distribution = Some(dist);
            }
        }
        let _ = index;
        out.push(crate::plan::AggregateGroup {
            key: key
                .into_iter()
                .map(|k| match k {
                    ValueKey::Int(v) => Value::Int(v),
                    ValueKey::Float(v) => Value::Float(v),
                    ValueKey::Text(v) => Value::from(v),
                })
                .collect(),
            values,
            count_distribution,
            event_probability,
            worlds: None,
        });
    }
    let mut group_columns: Vec<String> = agg.window.iter().map(|w| w.to_string()).collect();
    group_columns.extend(agg.group_by.iter().cloned());
    Ok(shown(&crate::plan::AggregateResult {
        group_columns,
        aggregates: agg.aggregates.clone(),
        having: agg.having.clone(),
        strategy: "exact",
        groups: out,
    }))
}

/// Restrictions of a [`table_of`] relation: none; a binary search on `t`;
/// per-row conjuncts on a float (NaN, ±∞) and on `prob`; an unknown column
/// reached only from row 12 on — in a later leaf of every stream but the
/// one-leaf one — and one never reached.
const PROB_WHERE: [&str; 6] = [
    "",
    "WHERE t >= 4",
    "WHERE f > 0 AND prob >= 0.25",
    "WHERE i != 3",
    "WHERE t >= 12 AND nope = 1",
    "WHERE t < -100 AND nope = 1",
];

/// Every shape whose operator was fused, with `{w}` standing for the
/// restriction.
const PROB_SHAPES: [&str; 18] = [
    "SELECT * FROM v {w}",
    "SELECT t, s FROM v {w} LIMIT 5",
    "SELECT * FROM v {w} TOP 4",
    "SELECT t, i FROM v {w} ORDER BY prob DESC LIMIT 3",
    "SELECT * FROM v {w} ORDER BY s LIMIT 6",
    "SELECT f, t FROM v {w} ORDER BY f DESC",
    "SELECT s FROM v {w} THRESHOLD 0.3 TOP 5 ORDER BY t DESC LIMIT 3",
    "SELECT t FROM v {w} ORDER BY nope LIMIT 2",
    "SELECT COUNT(*), SUM(i), AVG(f), EXPECTED(t) FROM v {w}",
    "SELECT COUNT(*), SUM(t) FROM v {w} GROUP BY WINDOW(t, 2.5, -1)",
    "SELECT COUNT(*), SUM(t) FROM v {w} GROUP BY WINDOW(f, 2)",
    "SELECT s, COUNT(*), AVG(t) FROM v {w} GROUP BY s",
    "SELECT COUNT(*), SUM(f) FROM v {w} GROUP BY WINDOW(t, 3), i",
    "SELECT COUNT(*) FROM v {w} GROUP BY WINDOW(t, 4) HAVING COUNT(*) >= 2",
    "SELECT COUNT(*), SUM(t) FROM v {w} GROUP BY WINDOW(t, 4) HAVING SUM(t) >= 9",
    "SELECT COUNT(*), SUM(t) FROM v {w} GROUP BY i TOP 6",
    "SELECT COUNT(*), SUM(s) FROM v {w} GROUP BY WINDOW(t, 4)",
    "SELECT COUNT(*), SUM(nope) FROM v {w} GROUP BY WINDOW(t, 4)",
];

proptest! {
    #[test]
    fn fused_statements_equal_the_materialised_reference_on_every_medium(
        rows in proptest::collection::vec(
            // Few distinct probabilities: ties straddle every leaf boundary.
            (0usize..INTS, 0usize..10, 0usize..4, 0i64..3, 0usize..3),
            0..40,
        ),
    ) {
        let rows: Vec<_> = rows
            .into_iter()
            .map(|(i, f, s, step, p)| (i, f, s, step, [0.25, 0.5, 0.75][p]))
            .collect();
        let table = table_of(&rows);
        for w in PROB_WHERE {
            for shape in PROB_SHAPES {
                statements_agree(&table, &shape.replace("{w}", w));
            }
        }
    }
}

#[test]
fn fused_statements_over_an_empty_relation_equal_the_reference() {
    let table = table_of(&[]);
    for w in PROB_WHERE {
        for shape in PROB_SHAPES {
            statements_agree(&table, &shape.replace("{w}", w));
        }
    }
    // The global group exists with nothing in it; a text SUM reads nothing.
    let got = rendered(single(&table).query("SELECT COUNT(*), SUM(s) FROM v"));
    assert!(
        got.starts_with("Ok(") && got.contains("value: 0.0"),
        "{got}"
    );
}

#[test]
fn errors_keep_their_order_when_the_first_leaf_reaches_nothing() {
    // `t` runs -2..38 and only rows from t = 10 on with a non-negative `i`
    // reach `nope`, so every stream but the one-leaf one meets the error
    // in a later leaf, after its operator has taken rows: the predicate
    // error still wins over a bad THRESHOLD, an unknown ORDER BY column
    // and a text SUM.
    let rows: Vec<_> = (0..40).map(|k| (k % INTS, k % 10, k % 4, 1, 0.5)).collect();
    let table = table_of(&rows);
    let nope =
        |out: Result<String, DbError>| matches!(out, Err(DbError::UnknownColumn(c)) if c == "nope");
    for sql in [
        "SELECT t FROM v WHERE i >= 0 AND t >= 10 AND nope = 1 ORDER BY nada LIMIT 2",
        "SELECT COUNT(*), SUM(s) FROM v WHERE i > -5 AND t >= 10 AND nope = 1",
        "SELECT * FROM v WHERE t > 10 AND nope = 1 TOP 3",
    ] {
        assert!(
            nope(statement_reference(&table, &planned(sql).unwrap().physical)),
            "{sql}"
        );
        statements_agree(&table, sql);
    }
    // The parser refuses τ outside [0, 1]; a hand-built plan does not.
    for (sql, reached) in [
        (
            "SELECT COUNT(*) FROM v WHERE t >= 10 AND i >= 0 AND nope = 1",
            true,
        ),
        ("SELECT * FROM v WHERE t < -5 AND nope = 1 TOP 2", false),
    ] {
        let mut planned = planned(sql).unwrap();
        planned.physical.threshold = Some(1.5);
        let want = statement_reference(&table, &planned.physical);
        assert_eq!(nope(want.clone()), reached, "{sql}");
        assert_eq!(
            !reached,
            matches!(want, Err(DbError::InvalidProbability(_))),
            "{sql}"
        );
        for (medium, got) in planned_media(&table, &planned) {
            assert_eq!(got, shown(&want), "{medium}: {sql}");
        }
    }
}

/// The fused operators over 10^6 rows, resident at widths 1 and 8 (the
/// fan-out splits the scan) and evicted at random leaf sizes, against
/// [`statement_reference`]: every shape with a bounded answer but `HAVING
/// SUM`, whose sum DP grows with `t`. Too slow for a debug build; CI runs
/// it in release.
#[test]
#[ignore = "release-only: cargo test --release -p tspdb-probdb --lib -- --ignored fused_operator_sweep"]
fn fused_operator_sweep() {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = |below: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below as u64) as usize
    };
    let rows: Vec<_> = (0..1_000_000)
        .map(|_| {
            let p = [0.25, 0.5, 0.75, 0.1 * next(11) as f64][next(4)];
            (next(INTS), next(10), next(4), next(3) as i64, p)
        })
        .collect();
    let table = table_of(&rows);
    drop(rows);
    let bounded = |shape: &&&str| {
        let fits = ["COUNT", "LIMIT", "TOP"].iter().any(|k| shape.contains(k));
        fits && !shape.contains("HAVING SUM")
    };
    for w in [
        "",
        "WHERE f > 0 AND prob >= 0.25",
        "WHERE t >= 900000 AND nope = 1",
    ] {
        for shape in PROB_SHAPES.iter().filter(bounded) {
            let sql = shape.replace("{w}", w);
            let planned = planned(&sql).unwrap();
            let want = shown(&statement_reference(&table, &planned.physical));
            let resident = single(&table);
            for width in [1, 8] {
                resident.set_worlds_threads(width);
                let got = rendered(resident.execute_planned(&planned));
                assert_eq!(got, want, "resident, width {width}: {sql}");
            }
            for chunk in [1 + next(200), 1 + next(20_000)] {
                let mut evicted = Database::new();
                evicted.attach_scan_source(Arc::new(Chunked {
                    relation: table.clone(),
                    chunk,
                }));
                let got = rendered(evicted.execute_planned(&planned));
                assert_eq!(got, want, "evicted, chunks of {chunk}: {sql}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ORDER BY … LIMIT / TOP
// ---------------------------------------------------------------------------

/// "Stable full sort, then truncate" over positions of `keep`.
fn sort_then_truncate(
    t: &ProbTable,
    keep: &[usize],
    column: &str,
    ascending: bool,
    limit: Option<usize>,
) -> Vec<usize> {
    let key = |row: usize| match column {
        "prob" => ValueKey::Float(t.probs()[row]),
        _ => {
            let c = t.schema().index_of(column).unwrap();
            t.column(c).values().key(row)
        }
    };
    let mut order = keep.to_vec();
    // `sort_by` is stable: ties stay in `keep` order in both directions.
    order.sort_by(|&a, &b| directed(ascending, key(a).cmp(&key(b))));
    order.truncate(limit.unwrap_or(usize::MAX));
    order
}

proptest! {
    #[test]
    fn order_by_limit_equals_stable_sort_then_truncate(
        rows in proptest::collection::vec(
            // Few distinct keys: ties everywhere.
            (0usize..3, 0usize..4, 0usize..4, 0i64..2, 0usize..3),
            0..50,
        ),
        column in 0usize..5,
        ascending in 0usize..2,
        limit in 0usize..5,
        top in 0usize..4,
    ) {
        // `i` takes 0, 2^53 and 2^53 + 1: the last two share one f64.
        let rows: Vec<_> = rows
            .into_iter()
            .map(|(i, f, s, step, p)| ([0, 3, 4][i], f, s, step, [0.25, 0.5, 0.5][p]))
            .collect();
        let table = table_of(&rows);
        let n = table.len();
        let column = ["i", "f", "s", "t", "prob"][column];
        let ascending = ascending == 1;
        let limit = [None, Some(0), Some(3), Some(n), Some(n + 7)][limit];
        let top = [None, Some(0), Some(4), Some(n + 1)][top];
        // A `TOP` first leaves its rows in probability order, so "earlier
        // offered" and "lower row index" come apart.
        let mut keep: Vec<usize> = (0..n).collect();
        if let Some(k) = top {
            keep.sort_by(|&a, &b| table.probs()[b].total_cmp(&table.probs()[a]));
            keep.truncate(k);
        }
        let want = table.take(&sort_then_truncate(&table, &keep, column, ascending, limit));
        let sql = format!(
            "SELECT * FROM v{}{}{}",
            top.map_or(String::new(), |k| format!(" TOP {k}")),
            format_args!(" ORDER BY {column}{}", if ascending { "" } else { " DESC" }),
            limit.map_or(String::new(), |l| format!(" LIMIT {l}")),
        );
        let want = rendered(Ok(QueryOutput::ProbRows(want)));
        for (medium, got) in media(&table, &sql) {
            prop_assert_eq!(&got, &want, "{}: {}", medium, sql);
        }
    }
}

#[test]
fn order_by_an_unknown_column_errors_even_over_nothing() {
    for sql in [
        "SELECT * FROM v ORDER BY nope LIMIT 0",
        "SELECT nada FROM v ORDER BY nope",
    ] {
        for (medium, got) in media(&table_of(&[]), sql) {
            assert_eq!(
                got,
                shown(&Err::<String, _>(DbError::UnknownColumn("nope".into()))),
                "{medium}"
            );
        }
    }
}

/// `CREATE TABLE s (t INT, r FLOAT)` with NaN in every seventh `r`, as a
/// deterministic table and as a probabilistic view of the same rows.
fn nan_relations() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE s (t INT, r FLOAT)").unwrap();
    let mut view = ProbTable::new(
        "sv",
        Schema::of(&[("t", ColumnType::Int), ("r", ColumnType::Float)]),
    );
    let mut rows = Vec::new();
    for t in 0..2_000i64 {
        let r = if t % 7 == 0 {
            f64::NAN
        } else {
            ((t * 37) % 101) as f64
        };
        rows.push(vec![Value::Int(t), Value::Float(r)]);
        view.insert(vec![Value::Int(t), Value::Float(r)], 0.5)
            .unwrap();
    }
    db.append_rows("s", rows).unwrap();
    db.register_prob_table(view).unwrap();
    db
}

#[test]
fn order_by_a_float_column_holding_nan_is_a_total_order() {
    // `sort_by` aborts on a comparator that is not a total order (Rust ≥
    // 1.81); `partial_cmp(..).unwrap_or(Equal)` over NaN was not one.
    let db = nan_relations();
    for relation in ["s", "sv"] {
        let column = |sql: &str| -> Vec<(i64, f64)> {
            let out = db.query(sql).unwrap();
            let cell = |i: usize, c: usize| match (out.rows(), out.prob_rows()) {
                (Some(t), _) => t.row(i)[c].clone(),
                (_, Some(t)) => t.row(i)[c].clone(),
                _ => panic!("rows expected"),
            };
            let n = out
                .rows()
                .map_or_else(|| out.prob_rows().unwrap().len(), |t| t.len());
            (0..n)
                .map(|i| (cell(i, 0).as_i64().unwrap(), cell(i, 1).as_f64().unwrap()))
                .collect()
        };
        // ASC: numbers first (ties to the earlier row), NaN after +∞.
        let asc = column(&format!("SELECT * FROM {relation} ORDER BY r LIMIT 5"));
        assert_eq!(
            asc,
            vec![(101, 0.0), (202, 0.0), (303, 0.0), (404, 0.0), (505, 0.0)],
            "{relation}"
        );
        let all = column(&format!("SELECT * FROM {relation} ORDER BY r"));
        assert_eq!(all.len(), 2_000);
        let first_nan = all.iter().position(|(_, r)| r.is_nan()).unwrap();
        assert_eq!(
            first_nan,
            2_000 - 286,
            "{relation}: NaN sorts last ascending"
        );
        assert!(all[first_nan..].iter().all(|(_, r)| r.is_nan()));
        assert!(all[..first_nan].windows(2).all(|w| w[0].1 <= w[1].1));
        // DESC: NaN first, in row order, then the numbers descending.
        let desc = column(&format!("SELECT * FROM {relation} ORDER BY r DESC LIMIT 5"));
        assert!(desc.iter().all(|(_, r)| r.is_nan()), "{relation}: {desc:?}");
        assert_eq!(
            desc.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![0, 7, 14, 21, 28],
            "{relation}"
        );
        let all = column(&format!("SELECT * FROM {relation} ORDER BY r DESC"));
        assert!(all[..286].iter().all(|(_, r)| r.is_nan()));
        assert!(all[286..].windows(2).all(|w| w[0].1 >= w[1].1));
    }
}

// ---------------------------------------------------------------------------
// Grouping
// ---------------------------------------------------------------------------

/// The grouping the fused folds replaced: one key vector per tuple into
/// an ordered map, members in `keep` order.
fn grouped_through_a_map(
    t: &ProbTable,
    keep: &[usize],
    window: Option<&WindowSpec>,
    group_by: &[String],
) -> Vec<(Vec<Value>, Vec<usize>)> {
    let by: Vec<usize> = group_by
        .iter()
        .map(|c| t.schema().index_of(c).unwrap())
        .collect();
    let mut groups: BTreeMap<Vec<ValueKey<'_>>, Vec<usize>> = BTreeMap::new();
    for &row in keep {
        let mut key = Vec::new();
        if let Some(w) = window {
            let c = t.schema().index_of(&w.column).unwrap();
            let v = t.column(c).values().value(row).as_f64().unwrap();
            key.push(ValueKey::Float(w.bucket_start(v)));
        }
        key.extend(by.iter().map(|&c| t.column(c).values().key(row)));
        groups.entry(key).or_default().push(row);
    }
    groups
        .into_iter()
        .map(|(key, rows)| {
            let key = key
                .into_iter()
                .map(|k| match k {
                    ValueKey::Int(v) => Value::Int(v),
                    ValueKey::Float(v) => Value::Float(v),
                    ValueKey::Text(v) => Value::from(v),
                })
                .collect();
            (key, rows)
        })
        .collect()
}

/// An aggregate plan over `t` with `window` and `group_by`, folding
/// `SUM(t)` and holding each group's probabilities for a `HAVING` tail.
fn grouping_plan(window: Option<WindowSpec>, group_by: Vec<String>) -> PhysicalPlan {
    let agg = AggregatePlan {
        window,
        group_by,
        aggregates: vec![
            crate::sql::AggExpr::count(),
            crate::sql::AggExpr {
                func: AggFunc::Sum,
                column: Some("t".into()),
            },
        ],
        having: Some(crate::sql::HavingClause {
            agg: crate::sql::AggExpr::count(),
            op: CmpOp::Ge,
            value: Value::Int(0),
        }),
    };
    PhysicalPlan {
        action: PhysicalAction::Aggregate(agg),
        ..plan_of(Vec::new(), None)
    }
}

/// A group as [`folded`] reports it.
type FoldedGroup = (usize, Vec<Value>, usize, f64, f64, Vec<f64>);

/// [`aggregate`]'s groups over `source`: index, key, rows, `Σp`, `Σp·t`
/// and the held probabilities, in the order `finish` saw them.
fn folded(source: Source<'_>, plan: &PhysicalPlan) -> Vec<FoldedGroup> {
    let PhysicalAction::Aggregate(agg) = &plan.action else {
        unreachable!()
    };
    aggregate(source, plan, agg, 1, None, |index, g| {
        (index, g.key, g.rows, g.mass, g.sums[0], g.probs)
    })
    .unwrap()
}

proptest! {
    #[test]
    fn fused_grouping_equals_the_ordered_map(
        rows in proptest::collection::vec(
            (0usize..9, 0usize..10, 0usize..4, 0i64..4, 0.0f64..=1.0),
            0..60,
        ),
        window in 0usize..4,
        extra in 0usize..4,
        shuffle in 0u64..u64::MAX,
        chunk in 1usize..9,
    ) {
        let table = table_of(&rows);
        // Windows over the ascending `t` (runs), over `i` (negative,
        // duplicated, non-monotone) and over `f` (NaN, ±∞, −0.0 buckets).
        let window = [None, Some("t"), Some("i"), Some("f")][window].map(|column| WindowSpec {
            column: column.to_string(),
            width: 2.5,
            origin: Some(-1.0),
        });
        let group_by: Vec<String> = [vec![], vec!["s"], vec!["i", "s"], vec!["f"]][extra]
            .iter()
            .map(|c| c.to_string())
            .collect();
        let plan = grouping_plan(window.clone(), group_by.clone());
        // In row order — and scrambled, as after `TOP`.
        let in_order: Vec<usize> = (0..table.len()).collect();
        let mut scrambled = in_order.clone();
        let mut state = shuffle | 1;
        for i in (1..scrambled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            scrambled.swap(i, (state >> 33) as usize % (i + 1));
        }
        for keep in [&in_order, &scrambled] {
            let shuffled = table.take(keep);
            let want: Vec<_> = grouped_through_a_map(&table, keep, window.as_ref(), &group_by)
                .into_iter()
                .enumerate()
                .map(|(index, (key, members))| {
                    let p: Vec<f64> = members.iter().map(|&r| table.probs()[r]).collect();
                    let mass = p.iter().fold(0.0, |acc, &p| acc + p);
                    let t = table.column(3).values();
                    let sum = members.iter().fold(0.0, |acc, &r| acc + table.probs()[r] * t.value(r).as_f64().unwrap());
                    (index, key, members.len(), mass, sum, p)
                })
                .collect();
            let relation = Relation::Probabilistic(shuffled.clone());
            prop_assert_eq!(shown(&folded(Source::Resident(&relation), &plan)), shown(&want));
            let mut stream = Chunked { relation: shuffled, chunk }.stream();
            prop_assert_eq!(shown(&folded(Source::Stream(&mut stream), &plan)), shown(&want));
        }
    }
}

#[test]
fn a_window_over_an_ascending_column_finishes_each_group_as_the_next_opens() {
    let rows: Vec<_> = (0..30).map(|k| (k % 9, 5, 0, 1, 0.5)).collect();
    let relation = Relation::Probabilistic(table_of(&rows));
    let window = WindowSpec {
        column: "t".into(),
        width: 4.0,
        origin: None,
    };
    let plan = grouping_plan(Some(window), Vec::new());
    let PhysicalAction::Aggregate(agg) = &plan.action else {
        unreachable!()
    };
    // `finish` sees a group while later rows are still to come: it runs
    // inside the scan, so the held probabilities of one group at a time.
    let mut live = Vec::new();
    let groups = aggregate(
        Source::Resident(&relation),
        &plan,
        agg,
        1,
        None,
        |index, g| {
            live.push(g.probs.capacity());
            (index, g.rows)
        },
    )
    .unwrap();
    assert_eq!(groups.len(), 8);
    assert!(groups.iter().enumerate().all(|(i, &(index, _))| i == index));
    assert!(live.iter().all(|&held| held <= 8), "{live:?}");
    // A non-monotone key groups through the map, in key order.
    let plan = grouping_plan(None, vec!["i".to_string()]);
    assert_eq!(folded(Source::Resident(&relation), &plan).len(), 9);
}

#[test]
fn grouping_reports_unknown_columns_and_text_windows() {
    let table = table_of(&[(0, 0, 0, 1, 0.5)]);
    let window = |column: &str| WindowSpec {
        column: column.into(),
        width: 1.0,
        origin: None,
    };
    let run = |t: &ProbTable, plan: &PhysicalPlan| {
        let relation = Relation::Probabilistic(t.clone());
        let PhysicalAction::Aggregate(agg) = &plan.action else {
            unreachable!()
        };
        aggregate(Source::Resident(&relation), plan, agg, 1, None, |_, g| {
            g.rows
        })
    };
    assert!(matches!(
        run(&table, &grouping_plan(None, vec!["nope".to_string()])),
        Err(DbError::UnknownColumn(_))
    ));
    assert!(matches!(
        run(&table, &grouping_plan(Some(window("nope")), Vec::new())),
        Err(DbError::UnknownColumn(_))
    ));
    assert!(matches!(
        run(&table, &grouping_plan(Some(window("s")), Vec::new())),
        Err(DbError::TypeMismatch { .. })
    ));
    // Nothing kept, nothing read: a text window over no rows is no groups.
    let none = run(
        &table_of(&[]),
        &grouping_plan(Some(window("s")), Vec::new()),
    )
    .unwrap();
    assert!(none.is_empty());
}

#[test]
fn a_deterministic_table_is_scanned_in_place() {
    let mut t = Table::new(
        "raw",
        Schema::of(&[
            ("t", ColumnType::Int),
            ("r", ColumnType::Float),
            ("tag", ColumnType::Text),
        ]),
    );
    for i in 0..5 {
        t.insert(vec![Value::Int(i), Value::Int(10 - i), Value::from("x")])
            .unwrap();
    }
    let batch = t.batch();
    assert_eq!((batch.len(), batch.offset(), batch.probs()), (5, 0, None));
    // The batch borrows the table's own columns: nothing is copied.
    let (ColumnSlice::Float(scanned), ColumnSlice::Float(own)) =
        (batch.values(1), t.column(1).values())
    else {
        panic!("a float column");
    };
    assert!(std::ptr::eq(scanned, own));
    let predicate = vec![Comparison::new("r", CmpOp::Gt, 7i64)];
    let keep: Vec<usize> = select(&batch, &predicate, None).unwrap().rows().collect();
    assert_eq!(keep, vec![0, 1, 2]);
    // `t` is ascending: a range conjunct on it is a binary search that
    // keeps a span.
    let ascending = Comparison::new("t", CmpOp::Ge, 3i64);
    assert!(batch.searches(&ascending));
    assert!(matches!(
        compare(&batch, Selection::Span(0..5), &ascending).unwrap(),
        Selection::Span(span) if span == (3..5)
    ));
}

// ---------------------------------------------------------------------------
// Deterministic tables, end to end
// ---------------------------------------------------------------------------

/// Rows `from..from + n` of `raw (t INT, r FLOAT, tag TEXT)`: `t` ascending
/// with repeats, every third `r` from [`float_pool`] (NaN, ±∞, −0.0, …),
/// the rest small signed numbers, `tag` from [`TEXT_POOL`]. Appending
/// `raw_rows(n, k)` to `raw_rows(0, n)` continues the same table.
fn raw_rows(from: usize, n: usize) -> Vec<Vec<Value>> {
    let floats = float_pool();
    (from..from + n)
        .map(|i| {
            let r = if i % 3 == 0 {
                floats[(i / 3) % floats.len()]
            } else {
                ((i * 37) % 101) as f64 - 50.0
            };
            vec![
                Value::Int((i / 2 * 3) as i64),
                Value::Float(r),
                Value::from(TEXT_POOL[(i * 7) % TEXT_POOL.len()]),
            ]
        })
        .collect()
}

fn raw_database(rows: usize) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE raw (t INT, r FLOAT, tag TEXT)")
        .unwrap();
    db.append_rows("raw", raw_rows(0, rows)).unwrap();
    assert!(db.table("raw").unwrap().column(0).is_ascending());
    db
}

/// An answer as text that compares floats bit for bit (NaN equal to NaN):
/// column names and rows, or group keys and aggregate values.
fn answered(out: Result<QueryOutput, DbError>) -> String {
    shown(&out.map(|out| match out {
        QueryOutput::Rows(t) => {
            let names: Vec<String> = t.schema().names().map(str::to_string).collect();
            shown(&(names, t.iter().collect::<Vec<_>>()))
        }
        QueryOutput::Aggregate(a) => {
            assert_eq!(a.strategy, "exact");
            let groups: Vec<(Vec<Value>, Vec<f64>)> = a
                .groups
                .iter()
                .map(|g| (g.key.clone(), g.values.iter().map(|v| v.value).collect()))
                .collect();
            shown(&groups)
        }
        other => panic!("rows or an aggregate, not {}", other.variant_name()),
    }))
}

fn planned(sql: &str) -> Result<PlannedQuery, DbError> {
    match crate::sql::parse(sql)? {
        crate::sql::Statement::Select(sel) => crate::plan::Planner::plan(&sel),
        other => panic!("a SELECT, not {other:?}"),
    }
}

/// `sql` answered one row at a time over `rows`: [`eval_conjunction`] per
/// row in row order (the first error wins), a stable sort on the `ORDER BY`
/// key, then `LIMIT`; or an ordered map from group key to member rows,
/// folded from `+0.0` in row order. Rendered as [`answered`] renders.
fn row_reference(schema: &Schema, rows: &[Vec<Value>], sql: &str) -> String {
    shown(&reference_output(schema, rows, sql))
}

fn key_of(v: &Value) -> ValueKey<'_> {
    match v {
        Value::Int(i) => ValueKey::Int(*i),
        Value::Float(f) => ValueKey::Float(*f),
        Value::Text(s) => ValueKey::Text(s),
    }
}

fn reference_output(schema: &Schema, rows: &[Vec<Value>], sql: &str) -> Result<String, DbError> {
    let plan = planned(sql)?.physical;
    let mut keep = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if eval_conjunction(schema, row, None, &plan.predicate)? {
            keep.push(i);
        }
    }
    let agg = match &plan.action {
        PhysicalAction::Rows {
            columns,
            order_by,
            limit,
        } => {
            if let Some((column, ascending)) = order_by {
                let c = schema.index_of(column)?;
                keep.sort_by(|&a, &b| {
                    let ord = key_of(&rows[a][c]).cmp(&key_of(&rows[b][c]));
                    if *ascending {
                        ord
                    } else {
                        ord.reverse()
                    }
                });
            }
            keep.truncate(limit.unwrap_or(usize::MAX));
            let names: Vec<String> = if columns.is_empty() {
                schema.names().map(str::to_string).collect()
            } else {
                columns.clone()
            };
            let idx: Vec<usize> = names
                .iter()
                .map(|c| schema.index_of(c))
                .collect::<Result<_, _>>()?;
            let out: Vec<Vec<Value>> = keep
                .iter()
                .map(|&i| idx.iter().map(|&c| rows[i][c].clone()).collect())
                .collect();
            return Ok(shown(&(names, out)));
        }
        PhysicalAction::Aggregate(agg) => agg,
    };
    let mut groups: BTreeMap<Vec<ValueKey<'_>>, Vec<usize>> = BTreeMap::new();
    if agg.window.is_none() && agg.group_by.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }
    for &i in &keep {
        let mut key = Vec::new();
        if let Some(w) = &agg.window {
            let v = rows[i][schema.index_of(&w.column)?].as_f64().unwrap();
            key.push(ValueKey::Float(w.bucket_start(v)));
        }
        for c in &agg.group_by {
            key.push(key_of(&rows[i][schema.index_of(c)?]));
        }
        groups.entry(key).or_default().push(i);
    }
    let sum = |members: &[usize], column: &str| -> f64 {
        let c = schema.index_of(column).unwrap();
        members
            .iter()
            .fold(0.0, |acc, &i| acc + rows[i][c].as_f64().unwrap())
    };
    let mut out: Vec<(Vec<Value>, Vec<f64>)> = Vec::new();
    for (key, members) in groups {
        let count = members.len() as f64;
        if let Some(h) = &agg.having {
            let comparand = match (&h.agg.func, &h.agg.column) {
                (AggFunc::Sum, Some(c)) => sum(&members, c),
                _ => count,
            };
            if !h.op.eval(comparand.partial_cmp(&h.value.as_f64().unwrap())) {
                continue;
            }
        }
        let values = agg
            .aggregates
            .iter()
            .map(|a| match (&a.func, &a.column) {
                (AggFunc::Count, _) => count,
                (AggFunc::Avg, Some(c)) if count > 0.0 => sum(&members, c) / count,
                (AggFunc::Avg, Some(_)) => 0.0,
                (_, Some(c)) => sum(&members, c),
                (_, None) => unreachable!("only COUNT has no column"),
            })
            .collect();
        let key = key
            .into_iter()
            .map(|k| match k {
                ValueKey::Int(v) => Value::Int(v),
                ValueKey::Float(v) => Value::Float(v),
                ValueKey::Text(v) => Value::from(v),
            })
            .collect();
        out.push((key, values));
    }
    Ok(shown(&out))
}

/// Restrictions over `raw_rows(0, 70_000)` (`t` runs 0..=104_997): binary
/// searches that keep a short tail, a middle span or nothing; per-row
/// conjuncts over spans above the fan-out floor; NaN, −0.0 and text
/// comparands; an unknown column reached by rows and one reached by none.
const RAW_WHERE: [&str; 10] = [
    "",
    "WHERE t >= 104000",
    "WHERE t > 3000 AND t <= 90000",
    "WHERE r > 0",
    "WHERE r = 0",
    "WHERE r != 0 AND tag = 'ab'",
    "WHERE t >= 2.5 AND r <= 'a'",
    "WHERE t >= 1000 AND r < 10 AND tag != 'a'",
    "WHERE tag >= 'a' AND nope = 1",
    "WHERE t < -5 AND nope = 1",
];

/// Every projection, ORDER BY / LIMIT and GROUP BY WINDOW shape, with
/// `{w}` standing for the restriction.
const RAW_SHAPES: [&str; 11] = [
    "SELECT * FROM raw {w}",
    "SELECT tag, t FROM raw {w} ORDER BY r DESC LIMIT 7",
    "SELECT r FROM raw {w} ORDER BY r LIMIT 40",
    "SELECT r, tag FROM raw {w} ORDER BY tag LIMIT 25",
    "SELECT * FROM raw {w} ORDER BY t DESC",
    "SELECT t FROM raw {w} LIMIT 3",
    "SELECT COUNT(*), SUM(r), AVG(t), EXPECTED(t) FROM raw {w}",
    "SELECT COUNT(*), SUM(r) FROM raw {w} GROUP BY WINDOW(t, 4096)",
    "SELECT COUNT(*), AVG(r) FROM raw {w} GROUP BY WINDOW(r, 7.5, -1)",
    "SELECT COUNT(*), SUM(t) FROM raw {w} GROUP BY WINDOW(t, 30000), tag",
    "SELECT COUNT(*), SUM(r) FROM raw {w} GROUP BY WINDOW(t, 4096) HAVING COUNT(*) >= 1500",
];

#[test]
fn deterministic_statements_equal_the_row_reference_at_widths_1_and_8() {
    // 70 000 rows: an unrestricted per-row conjunct leaves more than the
    // fan-out floor, so width 8 splits the scan into segments.
    let db = raw_database(70_000);
    let table = db.table("raw").unwrap();
    let rows: Vec<Vec<Value>> = table.iter().collect();
    assert!(rows.len() > FAN_OUT_MIN_ROWS);
    for w in RAW_WHERE {
        for shape in RAW_SHAPES {
            let sql = shape.replace("{w}", w);
            let want = row_reference(table.schema(), &rows, &sql);
            for width in [1, 8] {
                db.set_worlds_threads(width);
                assert_eq!(answered(db.query(&sql)), want, "width {width}: {sql}");
            }
        }
    }
}

#[test]
fn a_deterministic_snapshot_keeps_its_answer_across_1000_appends() {
    let n = 3_000;
    let mut db = raw_database(n);
    let statements = [
        "SELECT COUNT(*), SUM(r) FROM raw WHERE t >= 3000 GROUP BY WINDOW(t, 512)",
        "SELECT t, r FROM raw WHERE t >= 4000 ORDER BY t DESC LIMIT 9",
        "SELECT * FROM raw WHERE tag = 'b'",
    ];
    let plans: Vec<PlannedQuery> = statements.iter().map(|sql| planned(sql).unwrap()).collect();
    let before: Vec<String> = plans
        .iter()
        .map(|p| answered(db.execute_planned(p)))
        .collect();
    // A reader takes its snapshots (one per width) before the writer
    // appends 1 000 rows, one statement each.
    let snapshots: Vec<_> = plans
        .iter()
        .flat_map(|p| [1, 8].map(|width| (p, db.scan_input(p, width).unwrap(), width)))
        .collect();
    for k in 0..1_000 {
        db.append_rows("raw", raw_rows(n + k, 1)).unwrap();
    }
    for (i, (p, snapshot, width)) in snapshots.into_iter().enumerate() {
        let RelationSnapshot::Resident(relation) = &snapshot else {
            panic!("a resident relation");
        };
        let Relation::Deterministic(held) = &**relation else {
            panic!("a deterministic relation");
        };
        assert_eq!(held.len(), n);
        assert_eq!(
            answered(snapshot.execute(p, width)),
            before[i / 2],
            "snapshot at width {width}: {}",
            statements[i / 2]
        );
    }
    // The writer's answer includes the appends.
    let table = db.table("raw").unwrap();
    assert_eq!(table.len(), n + 1_000);
    let rows: Vec<Vec<Value>> = table.iter().collect();
    assert_eq!(shown(&rows), shown(&raw_rows(0, n + 1_000)));
    for (i, (sql, p)) in statements.iter().zip(&plans).enumerate() {
        let after = answered(db.execute_planned(p));
        assert_eq!(after, row_reference(table.schema(), &rows, sql), "{sql}");
        assert_ne!(after, before[i], "{sql} sees the appends");
    }
}
