//! Deterministic and tuple-independent probabilistic tables.
//!
//! A [`ProbTable`] is the paper's target representation: a *tuple-level*
//! probabilistic relation in which every row carries an existence
//! probability and rows are mutually independent (the standard
//! tuple-independent model of Dalvi & Suciu that the Ω-view builder
//! materialises into, cf. the `prob_view` of Fig. 1/2).

use crate::column::Column;
use crate::error::DbError;
use crate::scan::Batch;
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::ops::Range;

/// A deterministic relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
        }
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
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row after schema validation/coercion.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), DbError> {
        let row = self.schema.check_row(row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Appends the rows of `batch` at the given batch-local positions, in
    /// that order, transposing them back into rows — how a deterministic
    /// relation is rebuilt from the column batches of a scan source. The
    /// batch must carry this table's schema with every column present.
    pub fn extend_from_batch(&mut self, batch: &Batch<'_>, rows: impl Iterator<Item = usize>) {
        assert_eq!(batch.schema(), &self.schema, "batch of another relation");
        let arity = self.schema.arity();
        self.rows
            .extend(rows.map(|i| (0..arity).map(|c| batch.values(c).value(i)).collect()));
    }

    /// Column `c` over the rows `rows`, transposed into a typed column —
    /// how the row-major table reaches column-major consumers (the scan
    /// kernels, leaf pages) for just the rows they read.
    pub fn transpose(&self, c: usize, rows: Range<usize>) -> Column {
        let mut column = Column::with_capacity(self.schema.column(c).1, rows.len());
        for row in &self.rows[rows] {
            column
                .push(row[c].clone())
                .expect("table rows are schema-checked");
        }
        column
    }

    /// Borrow of all rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.rows[i]
    }

    /// Renders the table in a compact aligned text form (used by the
    /// examples and the experiment harness).
    pub fn render(&self, max_rows: usize) -> String {
        render_rows(
            &self.schema,
            self.rows.iter().map(|r| (r.as_slice(), None)),
            self.len(),
            max_rows,
        )
    }
}

/// A tuple-independent probabilistic relation: typed columns plus per-row
/// existence probabilities.
///
/// Storage is **column-major**: one [`Column`] per schema column beside the
/// contiguous `probs`, all of the same length. Scans borrow the columns as
/// one zero-copy [`Batch`] ([`ProbTable::batch`]); a tuple only becomes a
/// `Vec<Value>` where it leaves the relation one row at a time
/// ([`ProbTable::row`], [`ProbTable::iter`], rendering).
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
/// // Column-major: a scan reads typed slices (and knows `t` is ordered)…
/// assert_eq!(pv.column(1).values(), ColumnSlice::Int(&[4, 3]));
/// assert!(pv.column(0).is_ascending());
/// assert_eq!(pv.probs(), &[0.5, 0.25]);
/// // …and a row is only materialised on request.
/// assert_eq!(pv.row(1), vec![Value::Int(2), Value::Int(3)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProbTable {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    probs: Vec<f64>,
}

impl ProbTable {
    /// Creates an empty probabilistic table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        ProbTable {
            name: name.into(),
            columns: Column::for_schema(&schema, 0),
            schema,
            probs: Vec::new(),
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
        Ok(ProbTable {
            name: name.into(),
            schema,
            columns,
            probs,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema of the deterministic attributes (the probability is carried
    /// separately, not as a column).
    pub fn schema(&self) -> &Schema {
        &self.schema
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
        self.schema.validate_row(&row)?;
        for (column, v) in self.columns.iter_mut().zip(row) {
            column.push(v).expect("row validated above");
        }
        self.probs.push(prob);
        Ok(())
    }

    /// Appends the rows of `batch` at the given batch-local positions, in
    /// that order, with their probabilities — the column-wise append the
    /// scan operator and the storage engine build relations with. The
    /// batch must carry this relation's schema and probabilities.
    pub fn extend_from_batch(
        &mut self,
        batch: &Batch<'_>,
        rows: impl Iterator<Item = usize> + Clone,
    ) -> Result<(), DbError> {
        assert_eq!(batch.schema(), &self.schema, "batch of another relation");
        let probs = batch.probs().ok_or_else(|| {
            DbError::Storage(format!(
                "{}: probabilistic tuple without probability",
                self.name
            ))
        })?;
        let from = self.probs.len();
        self.probs.extend(rows.clone().map(|i| probs[i]));
        if let Err(e) = check_probs(&self.probs[from..]) {
            self.probs.truncate(from);
            return Err(e);
        }
        for (c, column) in self.columns.iter_mut().enumerate() {
            column.extend_gather(batch.values(c), rows.clone());
        }
        Ok(())
    }

    /// The rows at `rows` (in that order) projected onto the columns at
    /// `columns`, as a new relation under `schema` — the gather that builds
    /// row-returning results.
    pub(crate) fn gather(&self, rows: &[usize], columns: &[usize], schema: Schema) -> ProbTable {
        let columns = columns
            .iter()
            .map(|&c| {
                let src = self.columns[c].values();
                let mut out = Column::with_capacity(src.column_type(), rows.len());
                out.extend_gather(src, rows.iter().copied());
                out
            })
            .collect();
        ProbTable {
            name: self.name.clone(),
            schema,
            columns,
            probs: rows.iter().map(|&i| self.probs[i]).collect(),
        }
    }

    /// The rows at `rows` (in that order), all columns.
    pub(crate) fn take(&self, rows: &[usize]) -> ProbTable {
        let all: Vec<usize> = (0..self.columns.len()).collect();
        self.gather(rows, &all, self.schema.clone())
    }

    /// The whole relation as one borrowed batch (nothing is copied).
    pub fn batch(&self) -> Batch<'_> {
        Batch::new(&self.schema, &self.columns, Some(&self.probs), 0)
    }

    /// Column `c`.
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Borrow of all probabilities (parallel to the columns).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Row `i`, materialised.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.values().value(i)).collect()
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
    /// (linearity of expectation; independence not even required).
    pub fn expected_count(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Renders the relation with a trailing probability column.
    pub fn render(&self, max_rows: usize) -> String {
        render_rows(
            &self.schema,
            self.iter().map(|(r, p)| (r, Some(p))),
            self.len(),
            max_rows,
        )
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

/// Shared text renderer for both table kinds.
fn render_rows<R, I>(schema: &Schema, rows: I, total: usize, max_rows: usize) -> String
where
    R: AsRef<[Value]>,
    I: Iterator<Item = (R, Option<f64>)>,
{
    let mut header: Vec<String> = schema.names().map(str::to_string).collect();
    let mut has_prob = false;
    let mut body: Vec<Vec<String>> = Vec::new();
    for (row, prob) in rows.take(max_rows) {
        let mut cells: Vec<String> = row.as_ref().iter().map(|v| v.to_string()).collect();
        if let Some(p) = prob {
            has_prob = true;
            cells.push(format!("{p:.4}"));
        }
        body.push(cells);
    }
    if has_prob {
        header.push("prob".to_string());
    }
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &body {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for i in 0..cols {
            if i > 0 {
                line.push_str("  ");
            }
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            line.push_str(&format!("{cell:>w$}", w = widths[i]));
        }
        line
    };
    out.push_str(&fmt_row(&header, &widths));
    out.push('\n');
    for row in &body {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    if total > body.len() {
        out.push_str(&format!("… ({} more rows)\n", total - body.len()));
    }
    out
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
