//! Typed, contiguous column storage for probabilistic relations.
//!
//! A [`crate::ProbTable`] keeps one [`Column`] per schema column — a
//! `Vec<i64>`, `Vec<f64>` or `Vec<String>` — instead of one `Vec<Value>`
//! per tuple, so scans read plain slices ([`ColumnSlice`]) and never chase
//! a pointer per row. A [`crate::Value`] is only built where a single cell
//! has to leave the column (group keys, rendering, the row iterator).

use crate::error::DbError;
use crate::schema::Schema;
use crate::value::{ColumnType, Value, ValueKey};
use std::ops::Range;

/// The values of one column, by type.
#[derive(Debug, Clone, PartialEq)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text(Vec<String>),
}

/// One column of a relation: its values plus whether they are known to be
/// in ascending order.
///
/// The `ascending` flag is maintained in O(1) per `Column::push` and is
/// what lets a range predicate on a time-ordered Ω-view column binary
/// search instead of comparing every row. It is tracked for numeric
/// columns only (a float column containing NaN is never ascending — NaN
/// matches no comparison, so no cut point exists); text columns always
/// report `false`.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    ascending: bool,
}

impl Column {
    /// An empty column of the given type.
    pub(crate) fn new(ty: ColumnType) -> Column {
        Column::with_capacity(ty, 0)
    }

    /// An empty column of the given type with room for `n` values.
    pub(crate) fn with_capacity(ty: ColumnType, n: usize) -> Column {
        let data = match ty {
            ColumnType::Int => ColumnData::Int(Vec::with_capacity(n)),
            ColumnType::Float => ColumnData::Float(Vec::with_capacity(n)),
            ColumnType::Text => ColumnData::Text(Vec::with_capacity(n)),
        };
        Column {
            ascending: ty != ColumnType::Text,
            data,
        }
    }

    /// One empty column per column of `schema`, in schema order, each with
    /// room for `capacity` values.
    pub fn for_schema(schema: &Schema, capacity: usize) -> Vec<Column> {
        (0..schema.arity())
            .map(|c| Column::with_capacity(schema.column(c).1, capacity))
            .collect()
    }

    /// Transposes `rows` into one column per column of `schema` — the one
    /// type check rows get on their way into a relation: a row of the wrong
    /// arity is an [`DbError::ArityMismatch`], a cell `Column::push`
    /// hands back a [`DbError::TypeMismatch`] (ints widen into float
    /// columns), exactly as `Schema::check_row` reports them.
    pub fn from_rows(schema: &Schema, rows: Vec<Vec<Value>>) -> Result<Vec<Column>, DbError> {
        let mut columns = Column::for_schema(schema, rows.len());
        for row in rows {
            if row.len() != schema.arity() {
                return Err(DbError::ArityMismatch {
                    expected: schema.arity(),
                    got: row.len(),
                });
            }
            for (c, (column, v)) in columns.iter_mut().zip(row).enumerate() {
                column.push(v).map_err(|v| DbError::TypeMismatch {
                    column: schema.column(c).0.to_string(),
                    expected: column.column_type(),
                    got: v.column_type(),
                })?;
            }
        }
        Ok(columns)
    }

    /// The column's type.
    pub fn column_type(&self) -> ColumnType {
        self.values().column_type()
    }

    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        self.values().len()
    }

    /// Whether the values are known to be non-decreasing (see the type
    /// docs; always `false` for text).
    pub(crate) fn is_ascending(&self) -> bool {
        self.ascending
    }

    /// Appends a value, widening an int into a float column exactly like
    /// [`Value::coerce`]; a value of any other type is handed back.
    pub(crate) fn push(&mut self, value: Value) -> Result<(), Value> {
        if !value.fits(self.column_type()) {
            return Err(value);
        }
        let pushed = match value {
            Value::Int(x) => self.push_int(x),
            Value::Float(x) => self.push_float(x),
            Value::Text(s) => self.push_text(s),
        };
        debug_assert!(pushed, "value fits: checked above");
        Ok(())
    }

    /// Appends an int — widened in a float column. The typed pushes are
    /// what decoders fill columns with, no [`Value`] in between; they
    /// return `false`, appending nothing, when the column's type does not
    /// take the value.
    pub fn push_int(&mut self, x: i64) -> bool {
        match &mut self.data {
            ColumnData::Int(v) => {
                self.ascending &= v.last().is_none_or(|&last| last <= x);
                v.push(x);
            }
            ColumnData::Float(v) => float_push(v, &mut self.ascending, x as f64),
            ColumnData::Text(_) => return false,
        }
        true
    }

    /// Appends a float (see [`Column::push_int`]).
    pub fn push_float(&mut self, x: f64) -> bool {
        match &mut self.data {
            ColumnData::Float(v) => float_push(v, &mut self.ascending, x),
            _ => return false,
        }
        true
    }

    /// Appends a string (see [`Column::push_int`]).
    pub fn push_text(&mut self, s: String) -> bool {
        match &mut self.data {
            ColumnData::Text(v) => v.push(s),
            _ => return false,
        }
        true
    }

    /// Appends the values of `src` at the given positions, in that order.
    ///
    /// # Panics
    /// Panics when the column types differ or a position is out of range.
    pub(crate) fn extend_gather(
        &mut self,
        src: ColumnSlice<'_>,
        rows: impl Iterator<Item = usize>,
    ) {
        match (&mut self.data, src) {
            (ColumnData::Int(v), ColumnSlice::Int(s)) => {
                for i in rows {
                    self.ascending &= v.last().is_none_or(|&last| last <= s[i]);
                    v.push(s[i]);
                }
            }
            (ColumnData::Float(v), ColumnSlice::Float(s)) => {
                for i in rows {
                    float_push(v, &mut self.ascending, s[i]);
                }
            }
            (ColumnData::Text(v), ColumnSlice::Text(s)) => v.extend(rows.map(|i| s[i].clone())),
            (_, src) => panic!(
                "cannot gather a {} column into a {} column",
                src.column_type(),
                self.column_type()
            ),
        }
    }

    /// Drops every value, keeping the allocation.
    pub fn clear(&mut self) {
        match &mut self.data {
            ColumnData::Int(v) => v.clear(),
            ColumnData::Float(v) => v.clear(),
            ColumnData::Text(v) => v.clear(),
        }
        self.ascending = self.column_type() != ColumnType::Text;
    }

    /// The typed view of all values.
    pub fn values(&self) -> ColumnSlice<'_> {
        match &self.data {
            ColumnData::Int(v) => ColumnSlice::Int(v),
            ColumnData::Float(v) => ColumnSlice::Float(v),
            ColumnData::Text(v) => ColumnSlice::Text(v),
        }
    }
}

fn float_push(v: &mut Vec<f64>, ascending: &mut bool, x: f64) {
    // `last <= x` is false when either side is NaN.
    *ascending &= v.last().map_or(!x.is_nan(), |&last| last <= x);
    v.push(x);
}

/// A borrowed, typed view of (part of) one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnSlice<'a> {
    /// Values of an `INT` column.
    Int(&'a [i64]),
    /// Values of a `FLOAT` column.
    Float(&'a [f64]),
    /// Values of a `TEXT` column.
    Text(&'a [String]),
}

impl<'a> ColumnSlice<'a> {
    /// The column's type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnSlice::Int(_) => ColumnType::Int,
            ColumnSlice::Float(_) => ColumnType::Float,
            ColumnSlice::Text(_) => ColumnType::Text,
        }
    }

    /// Number of values in view.
    pub(crate) fn len(&self) -> usize {
        match self {
            ColumnSlice::Int(v) => v.len(),
            ColumnSlice::Float(v) => v.len(),
            ColumnSlice::Text(v) => v.len(),
        }
    }

    /// The sub-view over `range`.
    pub fn slice(&self, range: Range<usize>) -> ColumnSlice<'a> {
        match self {
            ColumnSlice::Int(v) => ColumnSlice::Int(&v[range]),
            ColumnSlice::Float(v) => ColumnSlice::Float(&v[range]),
            ColumnSlice::Text(v) => ColumnSlice::Text(&v[range]),
        }
    }

    /// Cell `i` as an owned [`Value`].
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnSlice::Int(v) => Value::Int(v[i]),
            ColumnSlice::Float(v) => Value::Float(v[i]),
            ColumnSlice::Text(v) => Value::Text(v[i].clone()),
        }
    }

    /// The canonical grouping key of cell `i` (see [`ValueKey`]).
    pub(crate) fn key(&self, i: usize) -> ValueKey<'a> {
        match self {
            ColumnSlice::Int(v) => ValueKey::Int(v[i]),
            ColumnSlice::Float(v) => ValueKey::Float(v[i]),
            ColumnSlice::Text(v) => ValueKey::Text(&v[i]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_coerces_ints_into_float_columns_and_rejects_misfits() {
        let mut c = Column::new(ColumnType::Float);
        c.push(Value::Int(2)).unwrap();
        c.push(Value::Float(2.5)).unwrap();
        assert_eq!(c.values(), ColumnSlice::Float(&[2.0, 2.5]));
        assert_eq!(c.push(Value::from("x")), Err(Value::from("x")));
        let mut c = Column::new(ColumnType::Int);
        assert_eq!(c.push(Value::Float(1.0)), Err(Value::Float(1.0)));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn ascending_flag_follows_the_pushes() {
        let mut c = Column::new(ColumnType::Int);
        for v in [1, 1, 3] {
            c.push(Value::Int(v)).unwrap();
        }
        assert!(c.is_ascending());
        c.push(Value::Int(2)).unwrap();
        assert!(!c.is_ascending());
        c.clear();
        assert!(c.is_ascending() && c.len() == 0);

        // NaN anywhere — first, middle or alone — clears the flag; ±0.0
        // compare equal and keep it.
        for values in [
            vec![f64::NAN],
            vec![1.0, f64::NAN, 2.0],
            vec![f64::NAN, 1.0],
        ] {
            let mut c = Column::new(ColumnType::Float);
            for v in values {
                c.push(Value::Float(v)).unwrap();
            }
            assert!(!c.is_ascending());
        }
        let mut c = Column::new(ColumnType::Float);
        for v in [-1.0, 0.0, -0.0, f64::INFINITY] {
            c.push(Value::Float(v)).unwrap();
        }
        assert!(c.is_ascending());
        assert!(!Column::new(ColumnType::Text).is_ascending());
    }

    #[test]
    fn gather_copies_the_named_positions_in_order() {
        let mut src = Column::new(ColumnType::Text);
        for s in ["a", "b", "c"] {
            src.push(Value::from(s)).unwrap();
        }
        let mut out = Column::new(ColumnType::Text);
        out.extend_gather(src.values(), [2, 0].into_iter());
        assert_eq!(out.values().value(0), Value::from("c"));
        assert_eq!(out.values().key(1), ValueKey::Text("a"));
        assert_eq!(src.values().slice(1..3).len(), 2);
    }
}
