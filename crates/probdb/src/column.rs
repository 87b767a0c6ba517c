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

    /// Appends ints in bulk — one `extend`, then one pass for the
    /// ascending flag, which ends exactly as per-value
    /// [`Column::push_int`]s would leave it. How a decoder fills an int
    /// column.
    ///
    /// # Panics
    /// Panics when the column is not an int column.
    pub(crate) fn extend_ints(&mut self, values: impl Iterator<Item = i64>) {
        let ColumnData::Int(v) = &mut self.data else {
            panic!("ints into a {} column", self.column_type());
        };
        let from = v.len();
        v.extend(values);
        fold_ascending(&mut self.ascending, v, from, false);
    }

    /// Appends floats in bulk (see [`Column::extend_ints`]; a NaN
    /// anywhere clears the flag, as a pushed one does).
    ///
    /// # Panics
    /// Panics when the column is not a float column.
    pub(crate) fn extend_floats(&mut self, values: impl Iterator<Item = f64>) {
        let ColumnData::Float(v) = &mut self.data else {
            panic!("floats into a {} column", self.column_type());
        };
        let from = v.len();
        v.extend(values);
        fold_ascending(&mut self.ascending, v, from, false);
    }

    /// Appends a run of consecutive values of a column of the same type as
    /// one slice copy. `src_ascending` is the flag of the column `src` was
    /// cut from: when set, the run is known NaN-free and non-decreasing and
    /// only its seam with the values already here is compared. The flag
    /// ends exactly as per-value pushes would leave it.
    ///
    /// # Panics
    /// Panics when the column types differ.
    pub(crate) fn extend_span(&mut self, src: ColumnSlice<'_>, src_ascending: bool) {
        match (&mut self.data, src) {
            (ColumnData::Int(v), ColumnSlice::Int(s)) => {
                let from = v.len();
                v.extend_from_slice(s);
                fold_ascending(&mut self.ascending, v, from, src_ascending);
            }
            (ColumnData::Float(v), ColumnSlice::Float(s)) => {
                let from = v.len();
                v.extend_from_slice(s);
                fold_ascending(&mut self.ascending, v, from, src_ascending);
            }
            (ColumnData::Text(v), ColumnSlice::Text(s)) => v.extend_from_slice(s),
            (_, src) => mismatch(src, self.column_type()),
        }
    }

    /// Appends the values of `src` at the given positions, in that order
    /// (the flag as for [`Column::extend_span`]).
    ///
    /// # Panics
    /// Panics when the column types differ or a position is out of range.
    pub(crate) fn extend_gather(&mut self, src: ColumnSlice<'_>, rows: &[usize]) {
        match (&mut self.data, src) {
            (ColumnData::Int(v), ColumnSlice::Int(s)) => {
                let from = v.len();
                v.extend(rows.iter().map(|&i| s[i]));
                fold_ascending(&mut self.ascending, v, from, false);
            }
            (ColumnData::Float(v), ColumnSlice::Float(s)) => {
                let from = v.len();
                v.extend(rows.iter().map(|&i| s[i]));
                fold_ascending(&mut self.ascending, v, from, false);
            }
            (ColumnData::Text(v), ColumnSlice::Text(s)) => {
                v.extend(rows.iter().map(|&i| s[i].clone()));
            }
            (_, src) => mismatch(src, self.column_type()),
        }
    }

    /// Room for `additional` more values.
    pub(crate) fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColumnData::Int(v) => v.reserve(additional),
            ColumnData::Float(v) => v.reserve(additional),
            ColumnData::Text(v) => v.reserve(additional),
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

/// Folds the values `v[from..]` just appended into `ascending`, leaving the
/// flag one push per value would: each value at least its predecessor, and
/// a first value not NaN (only NaN is unordered against itself). A set flag
/// means `v[..from]` is NaN-free, so the pass starts at the seam.
/// `run_ascending` says the appended run itself is NaN-free and
/// non-decreasing, which leaves only the seam to compare.
fn fold_ascending<T: PartialOrd>(ascending: &mut bool, v: &[T], from: usize, run_ascending: bool) {
    if !*ascending || from == v.len() {
        return;
    }
    let start = from.saturating_sub(1);
    let end = if run_ascending { from + 1 } else { v.len() };
    let checked = &v[start..end];
    // No early exit: the pairwise fold compiles to vector compares.
    let pairs = checked.iter().zip(&checked[1..]);
    *ascending = checked[0].partial_cmp(&checked[0]).is_some()
        && pairs.fold(true, |ok, (a, b)| ok & (a <= b));
}

fn mismatch(src: ColumnSlice<'_>, into: ColumnType) -> ! {
    panic!(
        "cannot append a {} column to a {into} column",
        src.column_type()
    )
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
        out.extend_gather(src.values(), &[2, 0]);
        assert_eq!(out.values().value(0), Value::from("c"));
        assert_eq!(out.values().key(1), ValueKey::Text("a"));
        assert_eq!(src.values().slice(1..3).len(), 2);
    }

    /// A column's values by bit pattern (so NaN equals itself and -0.0
    /// differs from 0.0) and its ascending flag.
    fn fingerprint(c: &Column) -> (Vec<u64>, bool) {
        let bits = match c.values() {
            ColumnSlice::Int(v) => v.iter().map(|&x| x as u64).collect(),
            ColumnSlice::Float(v) => v.iter().map(|x| x.to_bits()).collect(),
            ColumnSlice::Text(_) => unreachable!("numeric cases only"),
        };
        (bits, c.is_ascending())
    }

    /// One push per value: the reference every bulk append must equal.
    fn pushed(ty: ColumnType, values: &[Value]) -> Column {
        let mut c = Column::new(ty);
        for v in values {
            c.push(v.clone()).unwrap();
        }
        c
    }

    /// Appends `values` cut into leaves at every single cut point and in
    /// runs of 1, 2 and 3 — each way a bulk decode, a span copy (with the
    /// leaf's own flag, and without one) and a gather — and checks every
    /// result against per-value pushes.
    fn check_bulk_appends(ty: ColumnType, values: &[Value]) {
        let reference = fingerprint(&pushed(ty, values));
        let n = values.len();
        let mut cuttings: Vec<Vec<usize>> = (0..=n).map(|k| vec![k]).collect();
        cuttings.extend([1, 2, 3].map(|run| (run..n).step_by(run).collect()));
        for cuts in cuttings {
            let bounds: Vec<usize> = [0]
                .into_iter()
                .chain(cuts.iter().copied())
                .chain([n])
                .collect();
            let mut got = vec![Column::new(ty); 4];
            let all = pushed(ty, values);
            for leaf in bounds.windows(2).map(|w| w[0]..w[1]) {
                let src = pushed(ty, &values[leaf.clone()]);
                match src.values() {
                    ColumnSlice::Int(v) => got[0].extend_ints(v.iter().copied()),
                    ColumnSlice::Float(v) => got[0].extend_floats(v.iter().copied()),
                    ColumnSlice::Text(_) => unreachable!("numeric cases only"),
                }
                got[1].extend_span(src.values(), src.is_ascending());
                got[2].extend_span(src.values(), false);
                got[3].extend_gather(all.values(), &leaf.collect::<Vec<_>>());
            }
            for (way, column) in ["bulk", "span", "unflagged span", "gather"]
                .iter()
                .zip(&got)
            {
                assert_eq!(
                    fingerprint(column),
                    reference,
                    "{way} append of {values:?} cut at {cuts:?}"
                );
            }
        }
    }

    #[test]
    fn bulk_appends_leave_the_values_and_flag_of_per_value_pushes() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let floats: [&[f64]; 11] = [
            &[],
            &[nan],
            &[nan, 1.0, 2.0],
            &[1.0, nan, 2.0],
            &[1.0, 2.0, nan],
            &[-0.0, 0.0, -0.0, 0.0],
            &[-inf, -1.0, -0.0, 0.0, inf, inf],
            &[inf, -inf],
            &[1.5, 1.5, 1.5],
            // A descent between positions 2 and 3: at a leaf boundary
            // under the cut at 3, inside a leaf under every other.
            &[1.0, 2.0, 3.0, 2.5, 4.0, 5.0],
            &[0.0, 1.0, 2.0, 3.0, 1.0],
        ];
        for case in floats {
            let values: Vec<Value> = case.iter().map(|&x| Value::Float(x)).collect();
            check_bulk_appends(ColumnType::Float, &values);
        }
        let ints: [&[i64]; 6] = [
            &[],
            &[7],
            &[1, 1, 2, 2],
            &[i64::MIN, -1, 0, i64::MAX],
            &[1, 2, 3, 2, 3, 4],
            &[5, 4],
        ];
        for case in ints {
            let values: Vec<Value> = case.iter().map(|&x| Value::Int(x)).collect();
            check_bulk_appends(ColumnType::Int, &values);
        }

        // Random near-sorted runs over a pool with every special value.
        let pool = [f64::NAN, -inf, -1.0, -0.0, 0.0, 1.0, 2.0, inf];
        let mut seed = 0x5EED_u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) as usize
        };
        for _ in 0..300 {
            let len = next() % 9;
            let mut picks: Vec<usize> = (0..len).map(|_| 1 + next() % 7).collect();
            picks.sort_unstable();
            if len > 0 && next() % 3 == 0 {
                let at = next() % len;
                picks[at] = next() % pool.len(); // maybe a NaN or a descent
            }
            let floats: Vec<Value> = picks.iter().map(|&i| Value::Float(pool[i])).collect();
            check_bulk_appends(ColumnType::Float, &floats);
            let ints: Vec<Value> = picks.iter().map(|&i| Value::Int(i as i64)).collect();
            check_bulk_appends(ColumnType::Int, &ints);
        }
    }
}
