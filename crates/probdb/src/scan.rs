//! The scan operator — one restriction path over column batches — and
//! the fused operators that consume what it keeps.
//!
//! A resident relation is one zero-copy [`Batch`] (for a large
//! restriction, contiguous segments fanned over the fork-join helpers and
//! handed on in order); an evicted one is its leaf stream
//! ([`BatchStream`]), each leaf decoded, consumed and dropped. [`scan`]
//! runs `WHERE`, `THRESHOLD` and `TOP` through the selection kernel
//! (`select`) and hands each batch with its [`Selection`], in row order,
//! to one operator: [`Rows`] appends the survivors, or holds at most 2k
//! candidates for `ORDER BY … LIMIT k` and `TOP k`; [`aggregate`] folds
//! each kept row into its group as it arrives. Nothing holds an index per
//! scanned row: per-row conjuncts and `THRESHOLD` keep their positions
//! for at most [`SLICE_ROWS`] rows at a time (a fan-out segment, at most
//! [`FAN_OUT_MIN_ROWS`]), whatever the relation's size.
//!
//! The kernels reproduce [`crate::query::eval_conjunction`] (and with it
//! [`Value::compare`]) bit for bit, including *when* an unknown column is
//! an error: a conjunct only sees the rows the ones before it kept, and an
//! operator's own errors wait until the scan is done.

use crate::catalog::{QueryOutput, Relation};
use crate::column::{Column, ColumnSlice};
use crate::error::DbError;
use crate::plan::{AggregatePlan, PhysicalPlan};
use crate::query::{CmpOp, Comparison, PROB_PSEUDO_COLUMN};
use crate::schema::Schema;
use crate::sql::{AggFunc, WindowSpec};
use crate::table::{ProbTable, Table};
use crate::value::{ColumnType, Value, ValueKey};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;
use tspdb_stats::parallel::{effective_threads, try_map_segments};

/// Segment fan-out only pays for itself above this many rows left to
/// compare: a comparison loop runs at about a row per nanosecond, a thread
/// spawn costs tens of microseconds. Below the floor the rows are
/// restricted as one batch on the calling thread (same kernel, same
/// result).
const FAN_OUT_MIN_ROWS: usize = 65_536;

/// Per-row work over a resident relation runs over slices of at most this
/// many rows, so the positions a [`Selection`] keeps stay bounded (32 KiB)
/// — about a leaf's worth, as a stream hands them over.
const SLICE_ROWS: usize = 4096;

/// A borrowed run of consecutive rows of one relation, column-major.
#[derive(Debug, Clone)]
pub struct Batch<'a> {
    schema: &'a Schema,
    /// One entry per schema column.
    columns: Vec<BatchColumn<'a>>,
    probs: Option<&'a [f64]>,
    offset: usize,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct BatchColumn<'a> {
    values: ColumnSlice<'a>,
    ascending: bool,
}

impl<'a> Batch<'a> {
    /// A batch over whole columns: `columns` are the relation's columns in
    /// schema order, `probs` the parallel probabilities (`None` for a
    /// deterministic relation) and `offset` the global index of row 0.
    ///
    /// # Panics
    /// Panics when the columns do not match the schema's arity or differ
    /// in length from each other or from `probs`.
    pub fn new(
        schema: &'a Schema,
        columns: &'a [Column],
        probs: Option<&'a [f64]>,
        offset: usize,
    ) -> Batch<'a> {
        let len = probs.map_or_else(|| columns.first().map_or(0, Column::len), <[f64]>::len);
        Batch {
            offset,
            ..Batch::spanning(schema, columns, probs, len)
        }
    }

    /// A batch over the `len` rows of a relation's whole columns (a
    /// relation of no columns still has a row count).
    ///
    /// # Panics
    /// Panics when the columns do not match the schema's arity, or a
    /// column or `probs` is not `len` long.
    pub(crate) fn spanning(
        schema: &'a Schema,
        columns: &'a [Column],
        probs: Option<&'a [f64]>,
        len: usize,
    ) -> Batch<'a> {
        assert_eq!(
            columns.len(),
            schema.arity(),
            "one column per schema column"
        );
        assert!(
            columns.iter().all(|c| c.len() == len) && probs.is_none_or(|p| p.len() == len),
            "batch columns differ in length"
        );
        Batch {
            schema,
            columns: columns
                .iter()
                .map(|c| BatchColumn {
                    values: c.values(),
                    ascending: c.is_ascending(),
                })
                .collect(),
            probs,
            offset: 0,
            len,
        }
    }

    /// The rows `range` (batch-local) as a batch of their own.
    pub(crate) fn slice(&self, range: Range<usize>) -> Batch<'a> {
        Batch {
            schema: self.schema,
            columns: self
                .columns
                .iter()
                .map(|c| BatchColumn {
                    values: c.values.slice(range.clone()),
                    ascending: c.ascending,
                })
                .collect(),
            probs: self.probs.map(|p| &p[range.clone()]),
            offset: self.offset + range.start,
            len: range.len(),
        }
    }

    /// Column layout of the relation the batch belongs to.
    pub(crate) fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Global index of the batch's first row.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The rows' existence probabilities (`None` for a deterministic
    /// relation).
    pub fn probs(&self) -> Option<&'a [f64]> {
        self.probs
    }

    /// The values of schema column `c`.
    pub fn values(&self, c: usize) -> ColumnSlice<'a> {
        self.columns[c].values
    }

    /// Appends column `c`'s values at `sel` to `into`: a span as one slice
    /// copy, explicit positions as a gather.
    ///
    /// # Panics
    /// Panics when the column types differ.
    pub(crate) fn extend_column(&self, c: usize, sel: &Selection, into: &mut Column) {
        let column = self.columns[c];
        match sel {
            Selection::Span(span) => {
                into.extend_span(column.values.slice(span.clone()), column.ascending);
            }
            Selection::Rows(rows) => into.extend_gather(column.values, rows),
        }
    }

    /// The named column, or [`DbError::UnknownColumn`].
    fn column(&self, name: &str) -> Result<BatchColumn<'a>, DbError> {
        Ok(self.columns[self.schema.index_of(name)?])
    }

    /// What `name` addresses in a predicate or `ORDER BY`: the tuple
    /// probabilities for the `prob` pseudo-column of a probabilistic batch,
    /// the schema column otherwise.
    fn addressed(&self, name: &str) -> Result<BatchColumn<'a>, DbError> {
        match (name, self.probs) {
            (PROB_PSEUDO_COLUMN, Some(probs)) => Ok(BatchColumn {
                values: ColumnSlice::Float(probs),
                ascending: false,
            }),
            _ => self.column(name),
        }
    }

    /// Whether `cmp` is a binary search here: a range operator with a
    /// numeric literal on a column known to be ascending (so, over a span,
    /// [`compare`] keeps a span).
    fn searches(&self, cmp: &Comparison) -> bool {
        cmp.op != CmpOp::Ne
            && cmp.value.as_f64().is_some()
            && self.addressed(&cmp.column).is_ok_and(|c| c.ascending)
    }
}

/// A pull-based stream of [`Batch`]es over one relation, yielded by
/// [`crate::ScanSource::scan_stream`]. Batches arrive in the relation's
/// canonical (insertion) order and partition it, so anything computed from
/// the stream is bit-identical to the materialised path.
pub trait BatchStream {
    /// Column layout of the streamed relation.
    fn schema(&self) -> &Schema;
    /// Whether tuples carry an existence probability.
    fn probabilistic(&self) -> bool;
    /// How many tuples the stream yields in all, as far as its source
    /// knows ahead of reading them — what a consumer pre-sizes with. It
    /// never changes a result.
    fn size_hint(&self) -> usize;
    /// The next batch (borrowed from the stream's decode buffers, valid
    /// until the next call), or `None` at exhaustion.
    fn next_batch(&mut self) -> Result<Option<Batch<'_>>, DbError>;
}

// ---------------------------------------------------------------------------
// Kernel 1: conjunction → selection vector
// ---------------------------------------------------------------------------

/// Batch-local row positions, ascending: the rows a restriction has kept
/// so far, and the rows [`ProbTable::extend_from_batch`] appends — a span
/// as one slice copy per column, explicit positions as a gather.
#[derive(Debug, Clone)]
pub enum Selection {
    /// A contiguous run — what a batch starts as and what range predicates
    /// on ascending columns keep it as.
    Span(Range<usize>),
    /// Explicit positions.
    Rows(Vec<usize>),
}

impl From<Range<usize>> for Selection {
    fn from(span: Range<usize>) -> Selection {
        Selection::Span(span)
    }
}

impl Selection {
    /// Appends `src`'s values at the selected positions to `out`.
    pub(crate) fn extend<T: Clone>(&self, src: &[T], out: &mut Vec<T>) {
        match self {
            Selection::Span(span) => out.extend_from_slice(&src[span.clone()]),
            Selection::Rows(rows) => out.extend(rows.iter().map(|&i| src[i].clone())),
        }
    }

    /// Number of kept positions.
    pub(crate) fn len(&self) -> usize {
        match self {
            Selection::Span(span) => span.len(),
            Selection::Rows(rows) => rows.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn retain(self, keep: impl Fn(usize) -> bool) -> Selection {
        Selection::Rows(match self {
            Selection::Span(span) => span.filter(|&i| keep(i)).collect(),
            Selection::Rows(mut rows) => {
                rows.retain(|&i| keep(i));
                rows
            }
        })
    }

    /// The kept positions, in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        let (span, rows) = match self {
            Selection::Span(span) => (span.clone(), [].iter()),
            Selection::Rows(rows) => (0..0, rows.iter()),
        };
        span.chain(rows.copied())
    }
}

/// Evaluates `WHERE` (and `THRESHOLD`, when given) over one batch.
///
/// Conjuncts run in order, each over the survivors of the ones before it,
/// and evaluation stops at the first conjunct that leaves nothing — so a
/// column that fails to resolve is an error exactly when a row reached its
/// conjunct, as in the row-at-a-time reference.
pub(crate) fn select(
    batch: &Batch<'_>,
    pred: &[Comparison],
    threshold: Option<f64>,
) -> Result<Selection, DbError> {
    let mut sel = Selection::Span(0..batch.len());
    for cmp in pred {
        if sel.is_empty() {
            return Ok(sel);
        }
        sel = compare(batch, sel, cmp)?;
    }
    if let (Some(tau), Some(probs)) = (threshold, batch.probs()) {
        sel = sel.retain(|i| probs[i] >= tau);
    }
    Ok(sel)
}

/// One `column op literal` over the current selection, dispatched once on
/// (column type, literal type) — never per row.
fn compare(batch: &Batch<'_>, sel: Selection, cmp: &Comparison) -> Result<Selection, DbError> {
    let column = batch.addressed(&cmp.column)?;
    Ok(match (column.values, &cmp.value) {
        (ColumnSlice::Text(col), Value::Text(lit)) => {
            let op = cmp.op;
            sel.retain(|i| op.eval(Some(col[i].as_str().cmp(lit))))
        }
        // Text never compares with a number, under any operator.
        (ColumnSlice::Text(_), _) | (_, Value::Text(_)) => Selection::Span(0..0),
        // INT against INT compares exactly, as `i64`; any other numeric
        // pair compares through `as f64`, as `Value::compare` does.
        (ColumnSlice::Int(col), Value::Int(lit)) => {
            numeric(sel, col, |v| v, column.ascending, cmp.op, *lit)
        }
        (ColumnSlice::Int(col), lit) => {
            let lit = lit.as_f64().expect("numeric literal");
            numeric(sel, col, |v| v as f64, column.ascending, cmp.op, lit)
        }
        (ColumnSlice::Float(col), lit) => {
            let lit = lit.as_f64().expect("numeric literal");
            numeric(sel, col, |v| v, column.ascending, cmp.op, lit)
        }
    })
}

/// A numeric comparison of `key(v)` against `lit`: a binary search when a
/// range operator meets a still-contiguous selection of an ascending
/// column, one comparison loop per operator otherwise. NaN on either side
/// satisfies nothing (`!=` included), exactly like `partial_cmp` returning
/// `None`.
fn numeric<T: Copy, K: PartialOrd + Copy>(
    sel: Selection,
    col: &[T],
    key: impl Fn(T) -> K + Copy,
    ascending: bool,
    op: CmpOp,
    lit: K,
) -> Selection {
    if let (true, Selection::Span(span), false) = (ascending, &sel, op == CmpOp::Ne) {
        // Only a NaN literal is unordered against itself.
        if lit.partial_cmp(&lit).is_none() {
            return Selection::Span(0..0);
        }
        // `key` is monotone, so both predicates are monotone over an
        // ascending (NaN-free) run.
        let run = &col[span.clone()];
        let below = span.start + run.partition_point(|&v| key(v) < lit);
        let through = span.start + run.partition_point(|&v| key(v) <= lit);
        return Selection::Span(match op {
            CmpOp::Lt => span.start..below,
            CmpOp::Le => span.start..through,
            CmpOp::Gt => through..span.end,
            CmpOp::Ge => below..span.end,
            CmpOp::Eq => below..through,
            CmpOp::Ne => unreachable!("excluded above"),
        });
    }
    match op {
        CmpOp::Eq => sel.retain(|i| key(col[i]) == lit),
        // Not `v != lit`: that holds for NaN, which satisfies nothing.
        CmpOp::Ne => sel.retain(|i| key(col[i]).partial_cmp(&lit).is_some_and(Ordering::is_ne)),
        CmpOp::Lt => sel.retain(|i| key(col[i]) < lit),
        CmpOp::Le => sel.retain(|i| key(col[i]) <= lit),
        CmpOp::Gt => sel.retain(|i| key(col[i]) > lit),
        CmpOp::Ge => sel.retain(|i| key(col[i]) >= lit),
    }
}

// The scan operator over its two sources
// ---------------------------------------------------------------------------

/// What a statement reads: a resident relation (one borrowed batch), or
/// an evicted relation's leaf stream, read once and never copied whole.
pub(crate) enum Source<'a> {
    Resident(&'a Relation),
    Stream(&'a mut dyn BatchStream),
}

impl Source<'_> {
    pub(crate) fn schema(&self) -> &Schema {
        match self {
            Source::Resident(r) => r.batch().schema(),
            Source::Stream(s) => s.schema(),
        }
    }

    pub(crate) fn probabilistic(&self) -> bool {
        match self {
            Source::Resident(r) => matches!(r, Relation::Probabilistic(_)),
            Source::Stream(s) => s.probabilistic(),
        }
    }
}

impl Relation {
    /// The whole relation as one borrowed batch (nothing is copied).
    pub(crate) fn batch(&self) -> Batch<'_> {
        match self {
            Relation::Deterministic(t) => t.batch(),
            Relation::Probabilistic(t) => t.batch(),
        }
    }
}

/// Where a scan hands each batch with the rows it kept.
pub(crate) type Sink<'s> = dyn FnMut(&Batch<'_>, &Selection) + 's;

/// Runs `WHERE`, `THRESHOLD` and `TOP` over `source` and hands `sink` every
/// batch with the rows it kept, in row order — after `TOP`, the k most
/// probable as one batch in descending probability (ties to the earlier
/// row). The strategies refuse `THRESHOLD` and `TOP` on a deterministic
/// relation first. A sink cannot fail: its operator reports what it owes
/// (an unknown `ORDER BY` column, a text `SUM`) after the scan.
pub(crate) fn scan(
    source: Source<'_>,
    plan: &PhysicalPlan,
    threads: usize,
    sink: &mut Sink<'_>,
) -> Result<(), DbError> {
    let Some(k) = plan.top else {
        return restrict(source, plan, threads, FAN_OUT_MIN_ROWS, sink);
    };
    let schema = source.schema().clone();
    let all = (0..schema.arity()).collect();
    let rank = Some((PROB_PSEUDO_COLUMN, false));
    let mut top = Rows::new(
        &plan.table,
        (schema, all),
        source.probabilistic(),
        rank,
        Some(k),
    );
    restrict(source, plan, threads, FAN_OUT_MIN_ROWS, &mut |b, sel| {
        top.offer(b, sel)
    })?;
    let top = top.finish();
    sink(&top.batch(), &Selection::Span(0..top.table.len()));
    Ok(())
}

/// `WHERE` and `THRESHOLD` over `source`, then τ's range check (after the
/// scan, so a predicate error a row reached comes first). A stream runs
/// [`select`] leaf by leaf. A resident relation's leading binary-search
/// conjuncts narrow it to one span; per-row work left over runs over that
/// span in slices of [`SLICE_ROWS`], or, once the span holds `min_rows`
/// rows, in rounds of `segments` contiguous ranges (0 = one per core) of
/// [`FAN_OUT_MIN_ROWS`] rows each, and `sink` gets them **in row order** —
/// what [`select`] does over one batch, errors included: a slice raises an
/// unknown column exactly when one of its rows reaches that conjunct.
fn restrict(
    source: Source<'_>,
    plan: &PhysicalPlan,
    segments: usize,
    min_rows: usize,
    sink: &mut Sink<'_>,
) -> Result<(), DbError> {
    match source {
        Source::Resident(relation) => {
            let whole = relation.batch();
            let mut span = 0..whole.len();
            let mut rest = plan.predicate.as_slice();
            while let Some((cmp, tail)) = rest.split_first() {
                if span.is_empty() || !whole.searches(cmp) {
                    break;
                }
                let Selection::Span(kept) = compare(&whole, Selection::Span(span), cmp)? else {
                    unreachable!("a binary search keeps a span");
                };
                (span, rest) = (kept, tail);
            }
            let narrowed = whole.slice(span);
            let rows = narrowed.len();
            let per_row = !rest.is_empty() || plan.threshold.is_some();
            let (width, round) = match effective_threads(segments, rows) {
                w if per_row && rows >= min_rows && w > 1 => (w, w * FAN_OUT_MIN_ROWS),
                _ if per_row => (1, SLICE_ROWS),
                _ => (1, rows.max(1)),
            };
            for start in (0..rows).step_by(round) {
                let part = narrowed.slice(start..rows.min(start + round));
                let parts = try_map_segments(part.len(), width, |rows: Range<usize>| {
                    let sel = select(&part.slice(rows.clone()), rest, plan.threshold)?;
                    Ok((rows, sel))
                })?;
                for (rows, sel) in parts {
                    sink(&part.slice(rows), &sel);
                }
            }
        }
        Source::Stream(stream) => {
            while let Some(batch) = stream.next_batch()? {
                let sel = select(&batch, &plan.predicate, plan.threshold)?;
                sink(&batch, &sel);
            }
        }
    }
    match plan.threshold {
        Some(tau) if !(0.0..=1.0).contains(&tau) => Err(DbError::InvalidProbability(tau)),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Row results, ORDER BY … LIMIT and TOP
// ---------------------------------------------------------------------------

/// Rows copied out of batches onto chosen columns: a row query's answer,
/// and the candidates of `ORDER BY … LIMIT` and `TOP`. Unranked, the first
/// `limit` rows offered are kept. Ranked by a column (or `prob`) — ints as
/// `i64`, floats by `f64::total_cmp`, text lexicographically, ties to the
/// row offered first — at most `2·limit` are held: at that size the best
/// `limit` stay, and the worst of them is the bar a later row must beat.
pub(crate) struct Rows<'p> {
    table: Table,
    probs: Option<Vec<f64>>,
    /// The batch column each column of `table` copies.
    columns: Vec<usize>,
    /// The (resolved) ranking column, and whether it ranks ascending.
    rank: Option<(&'p str, bool)>,
    limit: usize,
    /// Each held row's rank key and offer ordinal (ranked rows only).
    keys: Vec<(Value, usize)>,
    offered: usize,
    bar: Option<Value>,
}

impl<'p> Rows<'p> {
    /// No rows yet: `schema`, taken from the batch columns `columns`.
    pub(crate) fn new(
        name: &str,
        (schema, columns): (Schema, Vec<usize>),
        probabilistic: bool,
        rank: Option<(&'p str, bool)>,
        limit: Option<usize>,
    ) -> Self {
        Rows {
            table: Table::new(name, schema),
            probs: probabilistic.then(Vec::new),
            columns,
            rank,
            limit: limit.unwrap_or(usize::MAX),
            keys: Vec::new(),
            offered: 0,
            bar: None,
        }
    }

    /// Offers `batch`'s rows at `sel`, in order.
    pub(crate) fn offer(&mut self, batch: &Batch<'_>, sel: &Selection) {
        let room = self.limit.saturating_sub(self.table.len());
        let taken = match (self.rank, sel) {
            (None, _) if sel.len() <= room => None,
            (None, Selection::Span(s)) => Some(Selection::Span(s.start..s.start + room)),
            (None, Selection::Rows(r)) => Some(Selection::Rows(r[..room].to_vec())),
            (Some((column, ascending)), _) => {
                let key = batch.addressed(column).expect("resolved").values;
                let mut rows = Vec::new();
                let live = self.limit > 0;
                for (j, i) in sel.rows().enumerate().filter(|_| live) {
                    let beats =
                        |bar: &Value| directed(ascending, key.key(i).cmp(&bar.key())).is_lt();
                    if self.bar.as_ref().is_none_or(beats) {
                        rows.push(i);
                        self.keys.push((key.value(i), self.offered + j));
                        if self.keys.len() >= self.limit.saturating_mul(2) {
                            self.copy(batch, &Selection::Rows(std::mem::take(&mut rows)));
                            self.cut(self.limit);
                        }
                    }
                }
                Some(Selection::Rows(rows))
            }
        };
        self.offered += sel.len();
        self.copy(batch, taken.as_ref().unwrap_or(sel));
    }

    /// Appends `batch`'s rows at `sel`.
    fn copy(&mut self, batch: &Batch<'_>, sel: &Selection) {
        self.table.reserve(sel.len());
        self.table.extend_columns(batch, sel, &self.columns);
        if let (Some(probs), Some(src)) = (&mut self.probs, batch.probs()) {
            sel.extend(src, probs);
        }
    }

    /// Keeps the best `k` held rows, best first: an O(n) selection, then
    /// a sort of the `k` — with the offer-order tie-break a total order, so
    /// "stable sort, then truncate".
    fn cut(&mut self, k: usize) {
        let (keys, ascending) = (&self.keys, self.rank.is_none_or(|(_, asc)| asc));
        let rank = |&a: &usize, &b: &usize| {
            directed(ascending, keys[a].0.key().cmp(&keys[b].0.key()))
                .then(keys[a].1.cmp(&keys[b].1))
        };
        let mut best: Vec<usize> = (0..keys.len()).collect();
        if k < best.len() {
            if k > 0 {
                best.select_nth_unstable_by(k - 1, rank);
            }
            best.truncate(k);
        }
        best.sort_unstable_by(rank);
        self.bar = best.last().map(|&r| keys[r].0.clone());
        self.keys = best.iter().map(|&r| keys[r].clone()).collect();
        let all: Vec<usize> = (0..self.columns.len()).collect();
        self.table = self.table.gather(&best, &all, self.table.schema().clone());
        if let Some(probs) = &mut self.probs {
            *probs = best.iter().map(|&r| probs[r]).collect();
        }
    }

    /// The kept rows, in their final order.
    pub(crate) fn finish(mut self) -> Self {
        if self.rank.is_some() {
            self.cut(self.limit);
        }
        self
    }

    /// The rows as one borrowed batch.
    fn batch(&self) -> Batch<'_> {
        let t = &self.table;
        Batch::spanning(t.schema(), t.columns(), self.probs.as_deref(), t.len())
    }

    /// The rows as a query answer.
    pub(crate) fn into_output(self) -> QueryOutput {
        match self.probs {
            Some(probs) => QueryOutput::ProbRows(ProbTable::from_table(self.table, probs)),
            None => QueryOutput::Rows(self.table),
        }
    }
}

fn directed(ascending: bool, ord: Ordering) -> Ordering {
    if ascending {
        ord
    } else {
        ord.reverse()
    }
}

// ---------------------------------------------------------------------------
// Aggregation: window / GROUP BY groups folded as rows arrive
// ---------------------------------------------------------------------------

/// One group's running folds: each kept row folds in as it arrives, in
/// row order from `+0.0` (the order of `sum_from_zero` and of the exact
/// `Σp·v`) — the one place a group's sums accumulate.
#[derive(Debug, Default)]
pub(crate) struct Folded {
    pub(crate) key: Vec<Value>,
    pub(crate) rows: usize,
    /// `Σp`, and per [`operands`] column `Σp·v` (`Σv` if deterministic).
    pub(crate) mass: f64,
    pub(crate) sums: Vec<f64>,
    /// The probabilities and `HAVING SUM` values a `HAVING` tail reads.
    pub(crate) probs: Vec<f64>,
    pub(crate) values: Vec<f64>,
}

impl Folded {
    /// Folds the rows `rows` of this group, in order.
    fn fold(
        &mut self,
        probs: Option<&[f64]>,
        operands: &[ColumnSlice<'_>],
        (holds, held): (bool, Option<usize>),
        rows: impl Iterator<Item = usize> + Clone,
    ) {
        self.rows += rows.clone().count();
        for (sum, &col) in self.sums.iter_mut().zip(operands) {
            let rows = rows.clone();
            *sum = match (col, probs) {
                (ColumnSlice::Int(v), Some(p)) => {
                    rows.fold(*sum, |acc, i| acc + p[i] * v[i] as f64)
                }
                (ColumnSlice::Float(v), Some(p)) => rows.fold(*sum, |acc, i| acc + p[i] * v[i]),
                (ColumnSlice::Int(v), None) => rows.fold(*sum, |acc, i| acc + v[i] as f64),
                (ColumnSlice::Float(v), None) => rows.fold(*sum, |acc, i| acc + v[i]),
                (ColumnSlice::Text(_), _) => unreachable!("a text operand is refused, never read"),
            };
        }
        if let Some(p) = probs {
            self.mass = rows.clone().fold(self.mass, |acc, i| acc + p[i]);
            if holds {
                self.probs.extend(rows.clone().map(|i| p[i]));
            }
        }
        if let Some(j) = held {
            self.values.extend(rows.map(|i| number(operands[j], i)));
        }
    }
}

/// The columns an aggregate plan folds, each once: the aggregates'
/// columns in projection order, then a `HAVING SUM` column.
pub(crate) fn operands(plan: &AggregatePlan) -> Vec<&str> {
    let having = plan.having.as_ref().filter(|h| h.agg.func == AggFunc::Sum);
    let wanted = plan.aggregates.iter().map(|a| &a.column);
    let mut out: Vec<&str> = Vec::new();
    for col in wanted.chain(having.map(|h| &h.agg.column)).flatten() {
        if !out.contains(&col.as_str()) {
            out.push(col);
        }
    }
    out
}

/// Cell `i` of a numeric column as `f64`, ints widened.
fn number(col: ColumnSlice<'_>, i: usize) -> f64 {
    match col {
        ColumnSlice::Int(v) => v[i] as f64,
        ColumnSlice::Float(v) => v[i],
        ColumnSlice::Text(_) => unreachable!("a text operand is refused, never read"),
    }
}

/// Appends numeric column `col`'s cells at `sel` to `out`, ints widened.
pub(crate) fn numbers(col: ColumnSlice<'_>, sel: &Selection, out: &mut Vec<f64>) {
    out.extend(sel.rows().map(|i| number(col, i)));
}

/// A group key in canonical group-key order ([`ValueKey`] order, value by
/// value), the order every strategy and `GROUP BY` output share.
struct GroupKey(Vec<Value>);

impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .iter()
            .map(Value::key)
            .cmp(other.0.iter().map(Value::key))
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for GroupKey {}

/// The rows `source` keeps, folded into the groups of `agg` (bucket
/// start ahead of the `GROUP BY` values; no grouping is one group, present
/// even over no rows), each handed to `finish` with its index in canonical
/// key order. Members fold in row order, as "stable sort, then fold"
/// does. An unrestricted global aggregate over a resident view is read off
/// its totals ([`from_totals`]). On a resident relation with an ascending
/// window column (no `GROUP BY`) a group is finished once the next opens, so a `HAVING` tail holds
/// only the open group's probabilities. Errors wait for the scan, in
/// row-at-a-time order: `invalid`, unknown grouping columns, then the
/// window's and the operands' (a text column, or an unknown operand of a
/// grouped plan, only once a row is kept).
pub(crate) fn aggregate<T>(
    source: Source<'_>,
    plan: &PhysicalPlan,
    agg: &AggregatePlan,
    threads: usize,
    invalid: Option<DbError>,
    mut finish: impl FnMut(usize, Folded) -> T,
) -> Result<Vec<T>, DbError> {
    if let Source::Resident(Relation::Probabilistic(t)) = &source {
        if let Some(g) = from_totals(t, plan, agg) {
            return Ok(vec![finish(0, g)]);
        }
    }
    let schema = source.schema().clone();
    let global = agg.window.is_none() && agg.group_by.is_empty();
    // Each owed error, and whether it is owed only if a row is kept.
    let mut owed: Vec<(DbError, bool)> = invalid.into_iter().map(|e| (e, false)).collect();
    // An unusable column resolves to a stand-in: nothing folds while
    // anything is owed.
    let mut col = |name: &str, numeric: bool, if_kept: bool| match schema.index_of(name) {
        Ok(c) if numeric && schema.column(c).1 == ColumnType::Text => {
            owed.push((DbError::not_numeric(name), true));
            c
        }
        Ok(c) => c,
        Err(e) => {
            owed.push((e, if_kept));
            0
        }
    };
    let by: Vec<usize> = agg.group_by.iter().map(|c| col(c, false, false)).collect();
    let window = agg
        .window
        .as_ref()
        .map(|w| (w, col(&w.column, true, false)));
    let names = operands(agg);
    let operands = names.iter().map(|c| col(c, true, !global)).collect();
    let having = agg.having.as_ref().filter(|_| source.probabilistic());
    let summed = having
        .filter(|h| h.agg.func == AggFunc::Sum)
        .and_then(|h| h.agg.column.as_deref());
    let runs = match &source {
        Source::Resident(r) if owed.is_empty() => {
            let ascending = window.is_some_and(|(_, c)| r.batch().columns[c].ascending);
            ascending && by.is_empty() && plan.top.is_none()
        }
        _ => false,
    };
    let mut groups = Groups {
        window,
        by,
        operands,
        holds: having.is_some(),
        held: names.iter().position(|n| Some(*n) == summed),
        runs,
        done: Vec::new(),
        slots: Vec::new(),
        order: BTreeMap::new(),
        open: None,
    };
    if global {
        groups.open(Vec::new(), &mut finish);
    }
    let (blocked, mut kept) = (!owed.is_empty(), false);
    scan(source, plan, threads, &mut |batch, sel| {
        kept |= !sel.is_empty();
        if !blocked {
            groups.fold(batch, sel, &mut finish);
        }
    })?;
    match owed.into_iter().find(|&(_, if_kept)| kept || !if_kept) {
        Some((e, _)) => Err(e),
        None => Ok(groups.finish(&mut finish)),
    }
}

/// The one group of an unrestricted global aggregate with no `HAVING`,
/// read off `t`'s running totals in O(1) (they fold every row from `+0.0`
/// in row order, as the scan would: the same bits) — `None` when an
/// aggregate names no column or one with no total (text or unknown).
pub(crate) fn from_totals(t: &ProbTable, p: &PhysicalPlan, agg: &AggregatePlan) -> Option<Folded> {
    let whole = p.predicate.is_empty() && p.threshold.is_none() && p.top.is_none();
    let global = agg.window.is_none() && agg.group_by.is_empty() && agg.having.is_none();
    let named = (agg.aggregates.iter()).all(|a| a.func == AggFunc::Count || a.column.is_some());
    (whole && global && named).then_some(())?;
    let sums = operands(agg).into_iter().map(|c| t.expected_sum(c).ok());
    Some(Folded {
        rows: t.len(),
        mass: t.expected_count(),
        sums: sums.collect::<Option<_>>()?,
        ..Folded::default()
    })
}

/// The group state of [`aggregate`].
struct Groups<'a, T> {
    window: Option<(&'a WindowSpec, usize)>,
    by: Vec<usize>,
    /// Parallel to [`Folded::sums`].
    operands: Vec<usize>,
    /// Whether groups keep their probabilities, and an operand's values,
    /// for a `HAVING` tail.
    holds: bool,
    held: Option<usize>,
    /// Whether keys arrive in runs (see [`aggregate`]): one open group.
    runs: bool,
    done: Vec<T>,
    /// The open groups, found by key through `order` (not in runs).
    slots: Vec<Folded>,
    order: BTreeMap<GroupKey, usize>,
    open: Option<usize>,
}

impl<T> Groups<'_, T> {
    /// Folds `batch`'s rows at `sel`, in order, into their groups, one
    /// run of equal keys at a time.
    fn fold(
        &mut self,
        batch: &Batch<'_>,
        sel: &Selection,
        finish: &mut impl FnMut(usize, Folded) -> T,
    ) {
        match sel {
            Selection::Span(span) => self.fold_at(batch, span.len(), |j| span.start + j, finish),
            Selection::Rows(rows) => self.fold_at(batch, rows.len(), |j| rows[j], finish),
        }
    }

    /// [`Groups::fold`] over the batch rows `pos(0..n)`, ascending. Over a
    /// window column the batch knows is ascending (no `GROUP BY`), starts
    /// never go down, so a binary search finds where a run ends.
    fn fold_at(
        &mut self,
        batch: &Batch<'_>,
        n: usize,
        pos: impl Fn(usize) -> usize + Copy,
        finish: &mut impl FnMut(usize, Folded) -> T,
    ) {
        let window = self.window.map(|(w, c)| (w, batch.values(c)));
        let start = |j: usize| window.map(|(w, col)| w.bucket_start(number(col, pos(j))));
        let by: Vec<ColumnSlice<'_>> = self.by.iter().map(|&c| batch.values(c)).collect();
        let operands: Vec<ColumnSlice<'_>> =
            self.operands.iter().map(|&c| batch.values(c)).collect();
        let search = by.is_empty() && self.window.is_some_and(|(_, c)| batch.columns[c].ascending);
        let mut a = 0;
        while a < n {
            let (key, i) = (start(a), pos(a));
            let row = || {
                key.map(ValueKey::Float)
                    .into_iter()
                    .chain(by.iter().map(|c| c.key(i)))
            };
            let slot = match self.open {
                Some(open) if row().eq(self.slots[open].key.iter().map(Value::key)) => open,
                _ => {
                    let k = key.map(Value::Float).into_iter();
                    let k = GroupKey(k.chain(by.iter().map(|c| c.value(i))).collect());
                    match self.order.get(&k) {
                        Some(&slot) => slot,
                        None => self.open(k.0, finish),
                    }
                }
            };
            self.open = Some(slot);
            let same = |j: usize| {
                start(j).map(f64::to_bits) == key.map(f64::to_bits)
                    && by.iter().all(|c| c.key(pos(j)) == c.key(i))
            };
            let b = match (self.window, search) {
                (None, _) if by.is_empty() => n,
                (_, true) => {
                    let (mut lo, mut hi) = (a + 1, n);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        (lo, hi) = if same(mid) { (mid + 1, hi) } else { (lo, mid) };
                    }
                    lo
                }
                _ => (a + 1..n).find(|&j| !same(j)).unwrap_or(n),
            };
            let held = (self.holds, self.held);
            self.slots[slot].fold(batch.probs(), &operands, held, (a..b).map(pos));
            a = b;
        }
    }

    /// Opens the group `key` and returns its slot; in runs, the group open
    /// until now is finished first.
    fn open(&mut self, key: Vec<Value>, finish: &mut impl FnMut(usize, Folded) -> T) -> usize {
        if let Some(g) = self.slots.pop_if(|_| self.runs) {
            let up = g.key.iter().map(Value::key).lt(key.iter().map(Value::key));
            assert!(up, "the keys of an ascending window went down");
            self.done.push(finish(self.done.len(), g));
        }
        if !self.runs {
            self.order.insert(GroupKey(key.clone()), self.slots.len());
        }
        let sums = vec![0.0; self.operands.len()];
        self.slots.push(Folded {
            key,
            sums,
            ..Folded::default()
        });
        self.slots.len() - 1
    }

    /// Every group's result, in canonical group-key order.
    fn finish(mut self, finish: &mut impl FnMut(usize, Folded) -> T) -> Vec<T> {
        if self.runs {
            let last = self.slots.pop().map(|g| finish(self.done.len(), g));
            self.done.extend(last);
            return self.done;
        }
        let mut slots = self.slots;
        let order = self.order.into_values().enumerate();
        order
            .map(|(index, slot)| finish(index, std::mem::take(&mut slots[slot])))
            .collect()
    }
}

#[cfg(test)]
mod tests;
