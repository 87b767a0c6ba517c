//! Deterministic and tuple-independent probabilistic relations, both
//! column-major.
//!
//! A [`Table`] is the column store: a name, a schema and one typed
//! [`Column`] per schema column, all of the same length. A [`ProbTable`] —
//! the paper's target representation, a *tuple-level* probabilistic
//! relation whose rows carry an existence probability and are mutually
//! independent (the tuple-independent model of Dalvi & Suciu that the
//! Ω-view builder materialises into, cf. the `prob_view` of Fig. 1/2) — is
//! a `Table` plus the contiguous probabilities and their running totals.
//!
//! Scans borrow the columns as one zero-copy [`Batch`] (`batch()`). A copy
//! of a relation — what an append pays while a snapshot reader still holds
//! the relation — is one flat copy per numeric column, not one allocation
//! per row. A tuple only becomes a `Vec<Value>` where it leaves the
//! relation one row at a time (`row`, `iter`, rendering); [`Table::rows`]
//! materialises every row at once.

use crate::column::{Column, ColumnSlice};
use crate::error::DbError;
use crate::scan::{Batch, Selection};
use crate::schema::Schema;
use crate::value::{ColumnType, Value};
use std::fmt;
use std::sync::OnceLock;

/// A deterministic relation, column-major: one typed [`Column`] per schema
/// column, each `len` values long.
///
/// Scans read it as one zero-copy [`Batch`] ([`Table::batch`]), exactly as
/// they read a [`ProbTable`]; a row is materialised only on request.
///
/// # Examples
///
/// ```
/// use tspdb_probdb::{ColumnSlice, ColumnType, Schema, Table, Value};
///
/// let schema = Schema::of(&[("t", ColumnType::Int), ("r", ColumnType::Float)]);
/// let mut raw = Table::new("raw", schema);
/// raw.insert(vec![Value::Int(1), Value::Int(4)]).unwrap(); // 4 widens
/// raw.insert(vec![Value::Int(2), Value::Float(3.5)]).unwrap();
///
/// assert_eq!(raw.column(1).values(), ColumnSlice::Float(&[4.0, 3.5]));
/// assert_eq!(raw.row(1), vec![Value::Int(2), Value::Float(3.5)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    /// Row count (kept apart from the columns: a schema may have none).
    len: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            columns: Column::for_schema(&schema, 0),
            schema,
            len: 0,
        }
    }

    /// Assembles a table from finished columns — how a decoder builds one
    /// without a `Vec<Value>` per row. The columns must be one per schema
    /// column, of that column's type, all of the same length.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
    ) -> Result<Self, DbError> {
        let len = columns.first().map_or(0, Column::len);
        check_columns(&schema, &columns, len)?;
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            len,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a row (ints widen into float columns). A rejected row
    /// leaves the table untouched.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), DbError> {
        self.schema.validate_row(&row)?;
        for (column, v) in self.columns.iter_mut().zip(row) {
            column.push(v).expect("row validated above");
        }
        self.len += 1;
        Ok(())
    }

    /// Appends the rows of `batch` at the batch-local positions `rows` (a
    /// span such as `0..batch.len()`, or a [`Selection`]), in order: a span
    /// as one slice copy per column, a [`Selection::Rows`] as a gather. The
    /// batch must carry this table's schema.
    pub fn extend_from_batch(&mut self, batch: &Batch<'_>, rows: impl Into<Selection>) {
        let sel = rows.into();
        assert_eq!(batch.schema(), &self.schema, "batch of another relation");
        for (c, column) in self.columns.iter_mut().enumerate() {
            batch.extend_column(c, &sel, column);
        }
        self.len += sel.len();
    }

    /// Room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        for column in &mut self.columns {
            column.reserve(additional);
        }
    }

    /// The whole table as one borrowed batch (nothing is copied).
    pub fn batch(&self) -> Batch<'_> {
        Batch::spanning(&self.schema, &self.columns, None, self.len)
    }

    /// Column `c`.
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Row `i`, materialised.
    pub fn row(&self, i: usize) -> Vec<Value> {
        assert!(i < self.len, "row {i} of {}", self.len);
        self.columns.iter().map(|c| c.values().value(i)).collect()
    }

    /// Iterator over materialised rows. Each item allocates its row;
    /// operators that scan use [`Table::batch`].
    pub fn iter(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Every row, materialised: O(rows) time and one allocation per row
    /// on every call. For a single row use [`Table::row`], for a pass
    /// [`Table::iter`], for a column [`Table::column`].
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.iter().collect()
    }

    /// The rows at `rows` (in that order) projected onto the columns at
    /// `columns`, as a new table under `schema` — the gather that builds
    /// row-returning results.
    pub(crate) fn gather(&self, rows: &[usize], columns: &[usize], schema: Schema) -> Table {
        let columns = columns
            .iter()
            .map(|&c| {
                let src = self.columns[c].values();
                let mut out = Column::with_capacity(src.column_type(), rows.len());
                out.extend_gather(src, rows);
                out
            })
            .collect();
        Table {
            name: self.name.clone(),
            schema,
            columns,
            len: rows.len(),
        }
    }

    /// Renders the table in a compact aligned text form (used by the
    /// examples and the experiment harness).
    pub fn render(&self, max_rows: usize) -> String {
        self.render_with(None, max_rows)
    }

    /// The first `max_rows` rows as aligned text, with a trailing `prob`
    /// column when `probs` is given.
    fn render_with(&self, probs: Option<&[f64]>, max_rows: usize) -> String {
        let body: Vec<Vec<String>> = (0..self.len.min(max_rows))
            .map(|i| {
                let mut cells: Vec<String> = self.row(i).iter().map(Value::to_string).collect();
                cells.extend(probs.map(|p| format!("{:.4}", p[i])));
                cells
            })
            .collect();
        let mut header: Vec<String> = self.schema.names().map(str::to_string).collect();
        if probs.is_some() && !body.is_empty() {
            header.push("prob".to_string());
        }
        let mut widths: Vec<usize> = header.iter().map(String::len).collect();
        for row in &body {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let cells: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(cell, &w)| format!("{cell:>w$}"))
                .collect();
            cells.join("  ") + "\n"
        };
        let mut out = line(&header);
        for row in &body {
            out.push_str(&line(row));
        }
        if self.len > body.len() {
            out.push_str(&format!("… ({} more rows)\n", self.len - body.len()));
        }
        out
    }
}

/// A tuple-independent probabilistic relation: a [`Table`] of its
/// deterministic attributes plus per-row existence probabilities.
///
/// Storage is **column-major**: the table's [`Column`]s beside the
/// contiguous `probs`, all of the same length. Scans borrow the columns as
/// one zero-copy [`Batch`] ([`ProbTable::batch`]); a tuple only becomes a
/// `Vec<Value>` where it leaves the relation one row at a time
/// ([`ProbTable::row`], [`ProbTable::iter`], rendering).
///
/// The relation also keeps its whole-relation expectations, Σp and Σp·v
/// per numeric column ([`ProbTable::expected_count`],
/// [`ProbTable::expected_sum`]): folded over every row by the first read,
/// then kept current by every mutation, so repeated reads cost O(1).
///
/// # Examples
///
/// ```
/// use tspdb_probdb::{ColumnSlice, ColumnType, ProbTable, Schema, Value};
///
/// let schema = Schema::of(&[("t", ColumnType::Int), ("room", ColumnType::Int)]);
/// let mut pv = ProbTable::new("pv", schema);
/// pv.insert(vec![Value::Int(1), Value::Int(4)], 0.5).unwrap();
/// pv.insert(vec![Value::Int(2), Value::Int(3)], 0.25).unwrap();
///
/// // Column-major: a scan reads typed slices…
/// assert_eq!(pv.column(1).values(), ColumnSlice::Int(&[4, 3]));
/// assert_eq!(pv.probs(), &[0.5, 0.25]);
/// // …and a row is only materialised on request.
/// assert_eq!(pv.row(1), vec![Value::Int(2), Value::Int(3)]);
/// ```
#[derive(Debug, Clone)]
pub struct ProbTable {
    table: Table,
    /// One per row of `table`.
    probs: Vec<f64>,
    totals: OnceLock<Totals>,
}

impl PartialEq for ProbTable {
    /// Compares contents only: the totals are a function of them, and one
    /// side may not have folded them yet.
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table && self.probs == other.probs
    }
}

/// Σp, and Σp·v per column (`None` for text), over every row of a relation:
/// folded from `+0.0` in row order, the order the scan path sums a whole
/// relation in, so the totals equal its answers bit for bit (a NaN's sign
/// and payload excepted: Rust leaves those unspecified).
#[derive(Debug, Clone)]
struct Totals {
    prob: f64,
    weighted: Vec<Option<f64>>,
}

impl Totals {
    fn new(schema: &Schema) -> Self {
        Totals {
            prob: 0.0,
            weighted: (0..schema.arity())
                .map(|c| (schema.column(c).1 != ColumnType::Text).then_some(0.0))
                .collect(),
        }
    }

    /// Folds rows `from..` of `columns` and `probs` into the totals.
    fn fold(&mut self, columns: &[Column], probs: &[f64], from: usize) {
        let probs = &probs[from..];
        for &p in probs {
            self.prob += p;
        }
        for (total, column) in self.weighted.iter_mut().zip(columns) {
            let Some(total) = total else { continue };
            match column.values().slice(from..column.len()) {
                ColumnSlice::Int(v) => {
                    for (&p, &v) in probs.iter().zip(v) {
                        *total += p * v as f64;
                    }
                }
                ColumnSlice::Float(v) => {
                    for (&p, &v) in probs.iter().zip(v) {
                        *total += p * v;
                    }
                }
                ColumnSlice::Text(_) => unreachable!("text columns keep no total"),
            }
        }
    }
}

impl ProbTable {
    /// Creates an empty probabilistic table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        ProbTable {
            table: Table::new(name, schema),
            probs: Vec::new(),
            totals: OnceLock::new(),
        }
    }

    /// Assembles a relation from finished columns — how a decoder builds
    /// one without going through a `Vec<Value>` per tuple. Upholds the
    /// same invariants as [`ProbTable::insert`]: one column per schema
    /// column, of that column's type, every column as long as `probs`, and
    /// every probability in `[0, 1]`.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
        probs: Vec<f64>,
    ) -> Result<Self, DbError> {
        check_columns(&schema, &columns, probs.len())?;
        check_probs(&probs)?;
        let table = Table {
            name: name.into(),
            schema,
            columns,
            len: probs.len(),
        };
        Ok(ProbTable {
            table,
            probs,
            totals: OnceLock::new(),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        self.table.name()
    }

    /// Schema of the deterministic attributes (the probability is carried
    /// separately, not as a column).
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Appends a row with its existence probability (ints widen into float
    /// columns). A rejected row leaves the relation untouched.
    pub fn insert(&mut self, row: Vec<Value>, prob: f64) -> Result<(), DbError> {
        check_probs(&[prob])?;
        self.table.insert(row)?;
        self.probs.push(prob);
        self.fold_totals(self.probs.len() - 1);
        Ok(())
    }

    /// Appends the rows of `batch` at the batch-local positions `rows`, in
    /// order, with their probabilities — the column-wise append the scan
    /// operator, the storage engine and `Database::append_columns` build
    /// relations with. A span (such as `0..batch.len()`) lands as one slice
    /// copy per column, a [`Selection::Rows`] as a gather; either way each
    /// column's ascending flag ends as per-value pushes would leave it. The
    /// batch must carry this relation's schema and probabilities.
    pub fn extend_from_batch(
        &mut self,
        batch: &Batch<'_>,
        rows: impl Into<Selection>,
    ) -> Result<(), DbError> {
        let probs = batch.probs().ok_or_else(|| {
            DbError::Storage(format!(
                "{}: probabilistic tuple without probability",
                self.name()
            ))
        })?;
        let sel = rows.into();
        let from = self.probs.len();
        sel.extend(probs, &mut self.probs);
        if let Err(e) = check_probs(&self.probs[from..]) {
            self.probs.truncate(from);
            return Err(e);
        }
        self.table.extend_from_batch(batch, sel);
        self.fold_totals(from);
        Ok(())
    }

    /// Room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.probs.reserve(additional);
        self.table.reserve(additional);
    }

    /// The rows at `rows` (in that order) projected onto the columns at
    /// `columns`, as a new relation under `schema` — the gather that builds
    /// row-returning results.
    pub(crate) fn gather(&self, rows: &[usize], columns: &[usize], schema: Schema) -> ProbTable {
        ProbTable {
            table: self.table.gather(rows, columns, schema),
            probs: rows.iter().map(|&i| self.probs[i]).collect(),
            totals: OnceLock::new(),
        }
    }

    /// The rows at `rows` (in that order), all columns.
    pub(crate) fn take(&self, rows: &[usize]) -> ProbTable {
        let all: Vec<usize> = (0..self.schema().arity()).collect();
        self.gather(rows, &all, self.schema().clone())
    }

    /// The whole relation as one borrowed batch (nothing is copied).
    pub fn batch(&self) -> Batch<'_> {
        Batch::spanning(self.schema(), self.columns(), Some(&self.probs), self.len())
    }

    /// Column `c`.
    pub fn column(&self, c: usize) -> &Column {
        self.table.column(c)
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        self.table.columns()
    }

    /// Borrow of all probabilities (parallel to the columns).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Row `i`, materialised.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.table.row(i)
    }

    /// Row `i`, materialised, with its probability.
    pub fn tuple(&self, i: usize) -> (Vec<Value>, f64) {
        (self.row(i), self.probs[i])
    }

    /// Iterator over materialised `(row, probability)` pairs. Each item
    /// allocates its row; operators that scan use [`ProbTable::batch`].
    pub fn iter(&self) -> impl Iterator<Item = (Vec<Value>, f64)> + '_ {
        (0..self.len()).map(|i| self.tuple(i))
    }

    /// Expected number of tuples present in a possible world: `Σ_i p_i`
    /// from `+0.0` in row order (linearity of expectation; independence
    /// not required). A running total: O(1) after the first read.
    pub fn expected_count(&self) -> f64 {
        self.totals().prob
    }

    /// Expected sum of a numeric column over a possible world: `Σ_i p_i ·
    /// v_i` from `+0.0` in row order (ints widen to floats). A running
    /// total: O(1) after the first read. A text column is a
    /// [`DbError::TypeMismatch`].
    pub fn expected_sum(&self, column: &str) -> Result<f64, DbError> {
        let c = self.schema().index_of(column)?;
        self.totals().weighted[c].ok_or_else(|| DbError::TypeMismatch {
            column: column.to_string(),
            expected: ColumnType::Float,
            got: ColumnType::Text,
        })
    }

    /// The totals, folded over every row on first use.
    fn totals(&self) -> &Totals {
        self.totals.get_or_init(|| {
            let mut totals = Totals::new(self.schema());
            totals.fold(self.table.columns(), &self.probs, 0);
            totals
        })
    }

    /// Folds rows `from..` into the totals, once they have been read; until
    /// then the first read folds every row.
    fn fold_totals(&mut self, from: usize) {
        if let Some(totals) = self.totals.get_mut() {
            totals.fold(self.table.columns(), &self.probs, from);
        }
    }

    /// Renders the relation with a trailing probability column.
    pub fn render(&self, max_rows: usize) -> String {
        self.table.render_with(Some(&self.probs), max_rows)
    }
}

/// Rejects columns that cannot stand for `rows` rows of `schema`: one
/// column per schema column, of that column's type, each `rows` long.
pub(crate) fn check_columns(
    schema: &Schema,
    columns: &[Column],
    rows: usize,
) -> Result<(), DbError> {
    if columns.len() != schema.arity() {
        return Err(DbError::ArityMismatch {
            expected: schema.arity(),
            got: columns.len(),
        });
    }
    for (c, column) in columns.iter().enumerate() {
        let (name, ty) = schema.column(c);
        if column.column_type() != ty {
            return Err(DbError::TypeMismatch {
                column: name.to_string(),
                expected: ty,
                got: column.column_type(),
            });
        }
        if column.len() != rows {
            return Err(DbError::ArityMismatch {
                expected: rows,
                got: column.len(),
            });
        }
    }
    Ok(())
}

/// Rejects probabilities outside `[0, 1]` (NaN included).
fn check_probs(probs: &[f64]) -> Result<(), DbError> {
    match probs.iter().find(|p| !(0.0..=1.0).contains(*p)) {
        Some(&p) => Err(DbError::InvalidProbability(p)),
        None => Ok(()),
    }
}

impl fmt::Display for ProbTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;

    fn schema() -> Schema {
        Schema::of(&[("time", ColumnType::Int), ("room", ColumnType::Int)])
    }

    #[test]
    fn deterministic_insert_and_access() {
        let mut t = Table::new("raw", schema());
        t.insert(vec![Value::Int(1), Value::Int(4)]).unwrap();
        t.insert(vec![Value::Int(2), Value::Int(3)]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(1), [Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn prob_table_validates_probability() {
        let mut p = ProbTable::new("view", schema());
        assert!(p.insert(vec![Value::Int(1), Value::Int(1)], 0.5).is_ok());
        assert!(matches!(
            p.insert(vec![Value::Int(1), Value::Int(2)], 1.5),
            Err(DbError::InvalidProbability(_))
        ));
        assert!(matches!(
            p.insert(vec![Value::Int(1), Value::Int(2)], f64::NAN),
            Err(DbError::InvalidProbability(_))
        ));
        assert!(p.insert(vec![Value::Int(1), Value::Int(2)], 0.0).is_ok());
        assert!(p.insert(vec![Value::Int(1), Value::Int(3)], 1.0).is_ok());
    }

    #[test]
    fn expected_count_is_probability_sum() {
        let mut p = ProbTable::new("view", schema());
        for (room, prob) in [(1, 0.5), (2, 0.1), (3, 0.3), (4, 0.1)] {
            p.insert(vec![Value::Int(1), Value::Int(room)], prob)
                .unwrap();
        }
        assert!((p.expected_count() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tuple_access_pairs_row_and_prob() {
        let mut p = ProbTable::new("v", schema());
        p.insert(vec![Value::Int(1), Value::Int(2)], 0.25).unwrap();
        let (row, prob) = p.tuple(0);
        assert_eq!(row[1], Value::Int(2));
        assert_eq!(p.column(1).values(), crate::ColumnSlice::Int(&[2]));
        assert_eq!(prob, 0.25);
        assert_eq!(p.iter().count(), 1);
    }

    #[test]
    fn render_includes_prob_column_and_truncation() {
        let mut p = ProbTable::new("v", schema());
        for i in 0..5 {
            p.insert(vec![Value::Int(i), Value::Int(1)], 0.5).unwrap();
        }
        let text = p.render(3);
        assert!(text.contains("prob"));
        assert!(text.contains("0.5000"));
        assert!(text.contains("2 more rows"));
    }

    #[test]
    fn insert_rejects_bad_rows() {
        let mut t = Table::new("raw", schema());
        assert!(matches!(
            t.insert(vec![Value::Int(1)]),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.insert(vec![Value::from("x"), Value::Int(1)]),
            Err(DbError::TypeMismatch { .. })
        ));
    }
}
