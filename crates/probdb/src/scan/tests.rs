//! The batch kernels against their row-at-a-time references.
//!
//! One harness ([`everywhere`]) runs a restriction through every way the
//! scan operator can be fed — resident as one batch, resident narrowed by
//! binary search and split into 1, 2, 7 and 64 concurrently restricted
//! segments, and the evicted batch stream both directly and behind a
//! [`Database`] — and holds each to the one-row reference
//! [`eval_conjunction`]; the remaining tests pin the selection and grouping
//! kernels to "sort everything, then look".

use super::*;
use crate::catalog::{Database, QueryOutput, ScanSource};
use crate::plan::{LogicalPlan, PhysicalAction, PlannedQuery, StrategyKind};
use crate::query::{eval_conjunction, Comparison, Conjunction};
use crate::sql::AggFunc;
use crate::value::ValueKey;
use proptest::prelude::*;
use std::collections::BTreeMap;
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

/// Runs `plan`'s restriction over `t` through every scan source and
/// segment width and holds each to the row-at-a-time reference.
fn everywhere(t: &ProbTable, plan: &PhysicalPlan) {
    let want = reference(t, plan);
    let want_rows = want.as_ref().map(|keep| t.take(keep)).map_err(Clone::clone);

    assert_eq!(
        shown(&restrict(&t.batch(), plan, 4)),
        shown(&want),
        "resident, one batch: {plan}"
    );
    // The fan-out with its size floor at zero: the survivors, and the
    // first error, come back in index order at every width.
    for segments in [1, 2, 7, 64] {
        assert_eq!(
            shown(&select_relation(&t.batch(), plan, segments, 0)),
            shown(&want),
            "{segments} segments: {plan}"
        );
    }
    for chunk in [1, 5, 1000] {
        let source = Chunked {
            relation: t.clone(),
            chunk,
        };
        let streamed = restrict_stream(&mut source.stream(), "v", plan).map(|r| match r {
            Relation::Probabilistic(t) => t,
            Relation::Deterministic(_) => panic!("a probabilistic stream"),
        });
        assert_eq!(
            shown(&streamed),
            shown(&want_rows),
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
    let want_output = want_rows.map(QueryOutput::ProbRows);
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
                    shown(&restrict(&table.batch(), &plan, 1)),
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
                restrict(&table.batch(), &plan, 1).unwrap().len()
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
        let order = ("i".to_string(), true);
        let got = order_rows(&table.batch(), vec![0, 1, 2], Some(&order), None).unwrap();
        assert_eq!(got, vec![2, 1, 0], "ORDER BY i around {base}");
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
        let got = restrict(&table.batch(), &plan, 1);
        match got {
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
    order.sort_by(|&a, &b| {
        let ord = key(a).cmp(&key(b));
        if ascending {
            ord
        } else {
            ord.reverse()
        }
    });
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
        // A `TOP` first leaves `keep` in probability order, so "earlier in
        // keep" and "lower row index" come apart.
        let mut plan = plan_of(Vec::new(), None);
        plan.top = [None, Some(0), Some(4), Some(n + 1)][top];
        let keep = restrict(&table.batch(), &plan, 1).unwrap();
        let all: Vec<usize> = (0..n).collect();
        let mut by_prob = all.clone();
        by_prob.sort_by(|&a, &b| table.probs()[b].total_cmp(&table.probs()[a]));
        by_prob.truncate(plan.top.unwrap_or(n));
        prop_assert_eq!(&keep, if plan.top.is_some() { &by_prob } else { &all });

        let order = (column.to_string(), ascending);
        let got = order_rows(&table.batch(), keep.clone(), Some(&order), limit).unwrap();
        prop_assert_eq!(got, sort_then_truncate(&table, &keep, column, ascending, limit));
        // No ORDER BY: LIMIT alone truncates.
        let got = order_rows(&table.batch(), keep.clone(), None, limit).unwrap();
        prop_assert_eq!(got, &keep[..limit.unwrap_or(n).min(keep.len())]);
    }
}

#[test]
fn order_by_an_unknown_column_errors_even_over_nothing() {
    let table = table_of(&[]);
    let order = ("nope".to_string(), true);
    assert!(matches!(
        order_rows(&table.batch(), Vec::new(), Some(&order), Some(0)),
        Err(DbError::UnknownColumn(_))
    ));
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

/// The grouping the run-cut kernel replaced: one key vector per tuple into
/// an ordered map.
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

fn flattened(groups: Groups<'_>) -> Vec<(Vec<Value>, Vec<usize>)> {
    let Groups { rows, groups } = groups;
    groups
        .into_iter()
        .map(|(key, members)| (key, rows[members].to_vec()))
        .collect()
}

proptest! {
    #[test]
    fn run_cut_grouping_equals_the_ordered_map(
        rows in proptest::collection::vec(
            (0usize..9, 0usize..10, 0usize..4, 0i64..4, 0.0f64..=1.0),
            0..60,
        ),
        window in 0usize..4,
        extra in 0usize..4,
        shuffle in 0u64..u64::MAX,
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
        // In row order — and in a scrambled `keep`, as after `TOP`.
        let in_order: Vec<usize> = (0..table.len()).collect();
        let mut scrambled = in_order.clone();
        let mut state = shuffle | 1;
        for i in (1..scrambled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            scrambled.swap(i, (state >> 33) as usize % (i + 1));
        }
        for keep in [&in_order, &scrambled] {
            let got = group_rows(&table.batch(), keep, window.as_ref(), &group_by).unwrap();
            let want = grouped_through_a_map(&table, keep, window.as_ref(), &group_by);
            prop_assert_eq!(shown(&flattened(got)), shown(&want));
        }
    }
}

#[test]
fn time_ordered_windows_are_cut_as_runs_of_keep_itself() {
    let rows: Vec<_> = (0..30).map(|k| (k % 9, 5, 0, 1, 0.5)).collect();
    let table = table_of(&rows);
    let keep: Vec<usize> = (0..30).collect();
    let window = WindowSpec {
        column: "t".into(),
        width: 4.0,
        origin: None,
    };
    let groups = group_rows(&table.batch(), &keep, Some(&window), &[]).unwrap();
    assert!(matches!(groups.rows, Cow::Borrowed(_)), "no copy, no sort");
    assert_eq!(groups.groups.len(), 8);
    // A non-monotone key takes the sort fallback and owns its row order.
    let by = ["i".to_string()];
    let groups = group_rows(&table.batch(), &keep, None, &by).unwrap();
    assert!(matches!(groups.rows, Cow::Owned(_)));
    assert_eq!(groups.groups.len(), 9);
}

#[test]
fn grouping_reports_unknown_columns_and_text_windows() {
    let table = table_of(&[(0, 0, 0, 1, 0.5)]);
    let keep = [0];
    let window = |column: &str| WindowSpec {
        column: column.into(),
        width: 1.0,
        origin: None,
    };
    assert!(matches!(
        group_rows(&table.batch(), &keep, None, &["nope".to_string()]),
        Err(DbError::UnknownColumn(_))
    ));
    assert!(matches!(
        group_rows(&table.batch(), &keep, Some(&window("nope")), &[]),
        Err(DbError::UnknownColumn(_))
    ));
    assert!(matches!(
        group_rows(&table.batch(), &keep, Some(&window("s")), &[]),
        Err(DbError::TypeMismatch { .. })
    ));
    // Nothing kept, nothing read: a text window over no rows is no groups.
    let none = group_rows(&table.batch(), &[], Some(&window("s")), &[]).unwrap();
    assert!(none.groups.is_empty());
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
    let mut keep = Vec::new();
    let predicate = vec![Comparison::new("r", CmpOp::Gt, 7i64)];
    select_into(&batch, &predicate, None, &mut keep).unwrap();
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
        .flat_map(|p| {
            let (snapshot, plan) = db.scan_input(p).unwrap();
            let plan = plan.into_owned();
            [1, 8].map(|width| (p, snapshot.clone(), plan.clone(), width))
        })
        .collect();
    for k in 0..1_000 {
        db.append_rows("raw", raw_rows(n + k, 1)).unwrap();
    }
    for (i, (p, snapshot, plan, width)) in snapshots.into_iter().enumerate() {
        let Relation::Deterministic(held) = &*snapshot.relation else {
            panic!("a deterministic relation");
        };
        assert_eq!(held.len(), n);
        assert_eq!(
            answered(snapshot.execute(p, &plan, width)),
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
