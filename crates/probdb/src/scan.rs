//! The scan operator: one restriction path over column batches, and the
//! typed kernels that sit on top of it.
//!
//! Every source of tuples feeds the same operator with borrowed
//! [`Batch`]es — typed column slices, the probability slice and the global
//! index of the batch's first row:
//!
//! * a resident relation — a [`ProbTable`] or a deterministic [`Table`],
//!   both column-major — hands out zero-copy slices: the whole relation,
//!   or, for a large restriction, one batch per contiguous segment fanned
//!   over the fork-join helpers and concatenated in segment order
//!   (`restrict`);
//! * an evicted relation decodes one leaf page at a time straight into
//!   column vectors ([`BatchStream`], consumed by `restrict_stream`).
//!
//! On batches sit four kernels: the conjunction → selection kernel
//! (`select_into`), `ORDER BY … LIMIT` / `TOP` selection over indices
//! (`order_rows`, `smallest_k`), window / `GROUP BY` grouping
//! (`group_rows`) and the column-wise gathers (`gather_f64`,
//! `gather_probs`, `ProbTable::gather`).
//!
//! The kernels reproduce the one-row reference
//! [`crate::query::eval_conjunction`] — and with it [`Value::compare`] —
//! bit for bit, including *when* an unresolvable column is an error: a
//! conjunct is only ever evaluated over the rows the conjuncts before it
//! kept, so an unknown column in conjunct *k* errors exactly when some row
//! reached it.

use crate::catalog::Relation;
use crate::column::{Column, ColumnSlice};
use crate::error::DbError;
use crate::plan::PhysicalPlan;
use crate::query::{CmpOp, Comparison, PROB_PSEUDO_COLUMN};
use crate::schema::Schema;
use crate::sql::WindowSpec;
use crate::table::{ProbTable, Table};
use crate::value::{ColumnType, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use tspdb_stats::parallel::try_map_segments;

/// Segment fan-out only pays for itself above this many rows left to
/// compare: a comparison loop runs at about a row per nanosecond, a thread
/// spawn costs tens of microseconds. Below the floor the rows are
/// restricted as one batch on the calling thread (same kernel, same
/// result).
const FAN_OUT_MIN_ROWS: usize = 65_536;

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
fn select(
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

/// [`select`], appending the survivors' **global** row indices to `out`.
pub(crate) fn select_into(
    batch: &Batch<'_>,
    pred: &[Comparison],
    threshold: Option<f64>,
    out: &mut Vec<usize>,
) -> Result<(), DbError> {
    let sel = select(batch, pred, threshold)?;
    out.extend(sel.rows().map(|i| batch.offset() + i));
    Ok(())
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

// ---------------------------------------------------------------------------
// The scan operator over its three sources
// ---------------------------------------------------------------------------

/// Indices of the tuples a query works on in the relation `whole` spans:
/// the `WHERE` filter, then `THRESHOLD` (minimum probability), then `TOP`
/// (the k most probable, NaN-free total order, ties to the earlier row,
/// returned in descending probability). Shared by every strategy and both
/// relation kinds so all evaluate the same sub-relation (the strategies
/// refuse `THRESHOLD` and `TOP` on a deterministic relation first).
///
/// Leading range conjuncts on an ascending column are binary searches and
/// run on the calling thread; when per-row work is left over at least
/// `FAN_OUT_MIN_ROWS` of the rows they keep, those rows are split into
/// `threads` contiguous segments restricted concurrently (see
/// [`select_relation`]). Everything else — a selective time window, an
/// unrestricted plan — runs as one batch.
pub(crate) fn restrict(
    whole: &Batch<'_>,
    plan: &PhysicalPlan,
    threads: usize,
) -> Result<Vec<usize>, DbError> {
    let mut keep = select_relation(whole, plan, threads, FAN_OUT_MIN_ROWS)?;
    check_threshold(plan)?;
    if let Some(k) = plan.top {
        let probs = whole
            .probs()
            .expect("TOP is refused on a deterministic relation");
        keep = most_probable(keep, k, probs);
    }
    Ok(keep)
}

/// `WHERE` and `THRESHOLD` over the relation `whole` spans. The leading
/// conjuncts that are binary searches narrow the whole relation to one
/// span; the rest run over that span split into `segments` contiguous
/// ascending index ranges (0 = one per core) once it holds at least
/// `min_rows` rows, and one batch otherwise, with the survivors
/// concatenated **in segment order**. That is the sequence of conjuncts
/// [`select`] runs over one whole batch, so the result is bit-identical at
/// every width — errors included: the only error a batch raises is an
/// unknown column, and a segment raises it exactly when one of its rows
/// reaches that conjunct.
fn select_relation(
    whole: &Batch<'_>,
    plan: &PhysicalPlan,
    segments: usize,
    min_rows: usize,
) -> Result<Vec<usize>, DbError> {
    let mut span = 0..whole.len();
    let mut rest = plan.predicate.as_slice();
    while let Some((cmp, tail)) = rest.split_first() {
        if span.is_empty() || !whole.searches(cmp) {
            break;
        }
        let Selection::Span(kept) = compare(whole, Selection::Span(span), cmp)? else {
            unreachable!("a binary search keeps a span");
        };
        (span, rest) = (kept, tail);
    }
    let narrowed = whole.slice(span);
    let scans = !rest.is_empty() || plan.threshold.is_some();
    let segments = if scans && narrowed.len() >= min_rows {
        segments
    } else {
        1
    };
    let mut parts = try_map_segments(narrowed.len(), segments, |rows: Range<usize>| {
        let (batch, mut keep) = (narrowed.slice(rows), Vec::new());
        select_into(&batch, rest, plan.threshold, &mut keep)?;
        Ok(keep)
    })?;
    Ok(match parts.len() {
        1 => parts.pop().expect("one segment"),
        _ => parts.concat(),
    })
}

/// The `k` most probable of `rows`, in descending probability with ties to
/// the lower row index — the ordering contract of the SQL `TOP` clause.
pub(crate) fn most_probable(rows: Vec<usize>, k: usize, probs: &[f64]) -> Vec<usize> {
    smallest_k(rows, k, |&a, &b| {
        probs[b].total_cmp(&probs[a]).then(a.cmp(&b))
    })
}

/// The restriction of a streamed (evicted) relation, materialised: `WHERE`
/// and `THRESHOLD` run batch by batch as the leaves decode, and only the
/// survivors are gathered into the result. Predicate errors surface from
/// the first batch a row reaches them in; τ's range check follows at
/// exhaustion — the order [`restrict`] checks them in.
pub(crate) fn restrict_stream(
    stream: &mut dyn BatchStream,
    name: &str,
    plan: &PhysicalPlan,
) -> Result<Relation, DbError> {
    let relation = materialize(
        stream,
        name,
        &plan.predicate,
        plan.threshold,
        <dyn BatchStream>::next_batch,
    )?;
    check_threshold(plan)?;
    Ok(relation)
}

/// The materialise loop of every streamed relation: the rows of each
/// batch `next_batch` pulls from `stream` that satisfy `pred` (and, when
/// probabilistic, `threshold`) are appended to a relation named `name`,
/// pre-sized from [`BatchStream::size_hint`]. A whole batch lands as one
/// slice copy per column. With an empty predicate and no threshold it
/// reads the relation back whole (`Storage::scan`).
///
/// `next_batch` is the stream's own reader, so a source keeps its error
/// type (a storage checksum failure stays typed) instead of going through
/// [`DbError`].
pub fn materialize<S, E>(
    stream: &mut S,
    name: &str,
    pred: &[Comparison],
    threshold: Option<f64>,
    next_batch: for<'s> fn(&'s mut S) -> Result<Option<Batch<'s>>, E>,
) -> Result<Relation, E>
where
    S: BatchStream + ?Sized,
    E: From<DbError>,
{
    let schema = stream.schema().clone();
    let rows = stream.size_hint();
    Ok(if stream.probabilistic() {
        let mut t = ProbTable::new(name, schema);
        t.reserve(rows);
        while let Some(batch) = next_batch(stream)? {
            let sel = select(&batch, pred, threshold)?;
            t.extend_from_batch(&batch, sel)?;
        }
        Relation::Probabilistic(t)
    } else {
        let mut t = Table::new(name, schema);
        t.reserve(rows);
        while let Some(batch) = next_batch(stream)? {
            let sel = select(&batch, pred, None)?;
            t.extend_from_batch(&batch, sel);
        }
        Relation::Deterministic(t)
    })
}

/// `THRESHOLD`'s range check. It runs *after* the scan on every path: a
/// predicate error a row reached is reported ahead of a bad τ.
fn check_threshold(plan: &PhysicalPlan) -> Result<(), DbError> {
    match plan.threshold {
        Some(tau) if !(0.0..=1.0).contains(&tau) => Err(DbError::InvalidProbability(tau)),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Kernel 2: ORDER BY … LIMIT / TOP over indices
// ---------------------------------------------------------------------------

/// The `k` smallest of `items` under `cmp`, sorted. `cmp` must be a total
/// order without ties (callers break them by position), which makes the
/// result equal to "stable sort, then truncate" while only ever sorting
/// `k` items: an O(n) selection, then an O(k log k) sort.
pub(crate) fn smallest_k<T>(
    mut items: Vec<T>,
    k: usize,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    if k < items.len() {
        if k > 0 {
            items.select_nth_unstable_by(k - 1, &cmp);
        }
        items.truncate(k);
    }
    items.sort_unstable_by(&cmp);
    items
}

/// The row indices a row-returning query emits: `keep` re-ordered by the
/// `ORDER BY` column (or `prob`) and cut to `limit`. Ints order as `i64`,
/// floats by `f64::total_cmp`, text lexicographically; ties go to the row
/// earlier in `keep`. `batch` must span the whole relation `keep` indexes.
pub(crate) fn order_rows(
    batch: &Batch<'_>,
    mut keep: Vec<usize>,
    order_by: Option<&(String, bool)>,
    limit: Option<usize>,
) -> Result<Vec<usize>, DbError> {
    let k = limit.map_or(keep.len(), |l| l.min(keep.len()));
    let Some((column, ascending)) = order_by else {
        keep.truncate(k);
        return Ok(keep);
    };
    let key = batch.addressed(column)?.values;
    let directed = |ord: Ordering| if *ascending { ord } else { ord.reverse() };
    let positions: Vec<usize> = (0..keep.len()).collect();
    let order = match key {
        ColumnSlice::Int(v) => smallest_k(positions, k, |&a, &b| {
            directed(v[keep[a]].cmp(&v[keep[b]])).then(a.cmp(&b))
        }),
        ColumnSlice::Float(v) => smallest_k(positions, k, |&a, &b| {
            directed(v[keep[a]].total_cmp(&v[keep[b]])).then(a.cmp(&b))
        }),
        ColumnSlice::Text(v) => smallest_k(positions, k, |&a, &b| {
            directed(v[keep[a]].cmp(&v[keep[b]])).then(a.cmp(&b))
        }),
    };
    Ok(order.into_iter().map(|p| keep[p]).collect())
}

// ---------------------------------------------------------------------------
// Kernel 3: window / GROUP BY grouping
// ---------------------------------------------------------------------------

/// Aggregation groups in canonical group-key order: each group is its key
/// values plus a range of `rows`, which lists the member row indices
/// group by group.
#[derive(Debug)]
pub(crate) struct Groups<'k> {
    pub(crate) rows: Cow<'k, [usize]>,
    pub(crate) groups: Vec<(Vec<Value>, Range<usize>)>,
}

/// Splits the kept row indices into groups by the optional temporal
/// window and the `GROUP BY` columns, returned in canonical group-key
/// order ([`crate::ValueKey`] order — the deterministic order every
/// strategy and `GROUP BY` output share). A windowed plan keys each group
/// by the bucket start ([`WindowSpec::bucket_start`], always a float)
/// ahead of the `GROUP BY` values; no window and an empty `group_by` yield
/// one global group with an empty key. `batch` must span the whole
/// relation `keep` indexes.
///
/// Bucket starts are computed once from the numeric slice; when the keys
/// then arrive non-decreasing — the rule for time-ordered Ω-views — groups
/// are cut as runs of `keep` itself, otherwise positions are stably sorted
/// by key first. Either way members keep their `keep` order within a
/// group and nothing is allocated per tuple.
pub(crate) fn group_rows<'k>(
    batch: &Batch<'_>,
    keep: &'k [usize],
    window: Option<&WindowSpec>,
    group_by: &[String],
) -> Result<Groups<'k>, DbError> {
    if window.is_none() && group_by.is_empty() {
        return Ok(Groups {
            rows: Cow::Borrowed(keep),
            groups: vec![(Vec::new(), 0..keep.len())],
        });
    }
    let by: Vec<ColumnSlice<'_>> = group_by
        .iter()
        .map(|col| batch.column(col).map(|c| c.values))
        .collect::<Result<_, _>>()?;
    let starts: Option<Vec<f64>> = match window {
        Some(w) => {
            let values = gather_f64(batch, &w.column, keep)?;
            Some(values.into_iter().map(|v| w.bucket_start(v)).collect())
        }
        None => None,
    };
    // Canonical key order between two positions of `keep`.
    let cmp = |a: usize, b: usize| {
        let mut ord = starts
            .as_ref()
            .map_or(Ordering::Equal, |s| s[a].total_cmp(&s[b]));
        for col in &by {
            ord = ord.then_with(|| col.key(keep[a]).cmp(&col.key(keep[b])));
        }
        ord
    };
    let n = keep.len();
    let order: Option<Vec<usize>> = if (1..n).all(|i| cmp(i - 1, i) != Ordering::Greater) {
        None
    } else {
        let mut positions: Vec<usize> = (0..n).collect();
        positions.sort_by(|&a, &b| cmp(a, b));
        Some(positions)
    };
    let position = |i: usize| order.as_ref().map_or(i, |o| o[i]);
    let mut groups = Vec::new();
    let mut start = 0;
    for end in 1..=n {
        if end < n && cmp(position(end - 1), position(end)) == Ordering::Equal {
            continue;
        }
        let first = position(start);
        let mut key = Vec::with_capacity(by.len() + usize::from(starts.is_some()));
        if let Some(starts) = &starts {
            key.push(Value::Float(starts[first]));
        }
        key.extend(by.iter().map(|col| col.value(keep[first])));
        groups.push((key, start..end));
        start = end;
    }
    let rows = match order {
        None => Cow::Borrowed(keep),
        Some(order) => Cow::Owned(order.into_iter().map(|p| keep[p]).collect()),
    };
    Ok(Groups { rows, groups })
}

// ---------------------------------------------------------------------------
// Kernel 4: column-wise gathers
// ---------------------------------------------------------------------------

/// The named numeric column at the given row indices, ints widened to
/// `f64`. A text column is a [`DbError::TypeMismatch`] as soon as there is
/// a row to read (an empty selection reads nothing and so succeeds, as the
/// per-row extraction always did). `batch` must span the whole relation
/// `rows` indexes.
pub(crate) fn gather_f64(
    batch: &Batch<'_>,
    column: &str,
    rows: &[usize],
) -> Result<Vec<f64>, DbError> {
    match batch.column(column)?.values {
        ColumnSlice::Int(v) => Ok(rows.iter().map(|&i| v[i] as f64).collect()),
        ColumnSlice::Float(v) => Ok(rows.iter().map(|&i| v[i]).collect()),
        ColumnSlice::Text(_) if rows.is_empty() => Ok(Vec::new()),
        ColumnSlice::Text(_) => Err(DbError::TypeMismatch {
            column: column.to_string(),
            expected: ColumnType::Float,
            got: ColumnType::Text,
        }),
    }
}

/// The probabilities at the given row indices.
pub(crate) fn gather_probs(probs: &[f64], rows: &[usize]) -> Vec<f64> {
    rows.iter().map(|&i| probs[i]).collect()
}

#[cfg(test)]
mod tests;
