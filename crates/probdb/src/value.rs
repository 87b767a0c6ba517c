//! Cell values and column types for the probabilistic database substrate.

use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer (timestamps, counters, room ids, …).
    Int(i64),
    /// 64-bit float (sensor readings, range bounds, probabilities).
    Float(f64),
    /// UTF-8 text.
    Text(String),
}

/// Type tag of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// [`Value::Int`].
    Int,
    /// [`Value::Float`].
    Float,
    /// [`Value::Text`].
    Text,
}

impl Value {
    /// The type tag of this value.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Int(_) => ColumnType::Int,
            Value::Float(_) => ColumnType::Float,
            Value::Text(_) => ColumnType::Text,
        }
    }

    /// Numeric view (ints widen to float); `None` for text.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Text(_) => None,
        }
    }

    /// Integer view; `None` for float/text.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// SQL-style comparison: two ints compare exactly, as `i64`; any other
    /// numeric pair compares through `as f64`; text compares
    /// lexicographically; mixed text/numeric comparisons are undefined
    /// (`None`).
    #[cfg(test)]
    pub(crate) fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Text(_), _) | (_, Value::Text(_)) => None,
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// Whether a value can be stored in a column of type `ty` (ints coerce
    /// into float columns).
    pub(crate) fn fits(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Value::Int(_), ColumnType::Int)
                | (Value::Int(_), ColumnType::Float)
                | (Value::Float(_), ColumnType::Float)
                | (Value::Text(_), ColumnType::Text)
        )
    }
}

/// A canonical, totally ordered grouping key borrowed from a [`Value`].
///
/// Deduplication and `GROUP BY` evaluation need a key that is `Ord` +
/// `Eq`, which `Value` cannot be (floats). Formatting every cell into a
/// string gives such a key but allocates per row on the dedup hot path;
/// `ValueKey` instead wraps the value with a total order (floats via
/// `f64::total_cmp`, cross-type comparisons by the variant rank
/// `Int < Float < Text`) and borrows text instead of cloning it.
///
/// The grouping semantics match the old format-based keys: values of
/// different variants are always distinct (`Int(3)` ≠ `Float(3.0)`), and
/// equal-bit floats (including NaN of the same sign) coincide.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueKey<'a> {
    /// Key of an [`Value::Int`].
    Int(i64),
    /// Key of a [`Value::Float`]; ordered by `f64::total_cmp`.
    Float(f64),
    /// Key of a [`Value::Text`], borrowed from the source value.
    Text(&'a str),
}

impl Value {
    /// The value's canonical grouping key.
    pub(crate) fn key(&self) -> ValueKey<'_> {
        match self {
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) => ValueKey::Float(*f),
            Value::Text(s) => ValueKey::Text(s),
        }
    }
}

impl ValueKey<'_> {
    /// Variant rank for cross-type ordering.
    fn rank(&self) -> u8 {
        match self {
            ValueKey::Int(_) => 0,
            ValueKey::Float(_) => 1,
            ValueKey::Text(_) => 2,
        }
    }
}

impl Ord for ValueKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (ValueKey::Int(a), ValueKey::Int(b)) => a.cmp(b),
            (ValueKey::Float(a), ValueKey::Float(b)) => a.total_cmp(b),
            (ValueKey::Text(a), ValueKey::Text(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for ValueKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ValueKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ValueKey<'_> {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => write!(f, "INT"),
            ColumnType::Float => write!(f, "FLOAT"),
            ColumnType::Text => write!(f, "TEXT"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparison_crosses_types() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(2.0).compare(&Value::Int(2)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn text_comparison_is_lexicographic() {
        assert_eq!(
            Value::from("abc").compare(&Value::from("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::from("x").compare(&Value::Int(1)), None);
    }

    #[test]
    fn ints_fit_float_columns_and_nothing_else_crosses_types() {
        let cases = [
            (Value::Int(1), ColumnType::Int, true),
            (Value::Int(1), ColumnType::Float, true),
            (Value::Int(1), ColumnType::Text, false),
            (Value::Float(1.0), ColumnType::Int, false),
            (Value::from("s"), ColumnType::Text, true),
        ];
        for (v, t, expect) in cases {
            assert_eq!(v.fits(t), expect, "{v:?} fits {t:?}");
        }
    }

    #[test]
    fn value_keys_order_and_group_like_the_values() {
        // Same variant: numeric / lexicographic order.
        assert!(ValueKey::Int(1) < ValueKey::Int(2));
        assert!(ValueKey::Float(1.5) < ValueKey::Float(2.0));
        assert!(ValueKey::Text("a") < ValueKey::Text("b"));
        // Cross-variant: distinct, ranked Int < Float < Text.
        assert_ne!(ValueKey::Int(3), ValueKey::Float(3.0));
        assert!(ValueKey::Int(3) < ValueKey::Float(3.0));
        assert!(ValueKey::Float(9.0) < ValueKey::Text("0"));
        // NaN keys are equal to themselves so NaN rows group together.
        assert_eq!(ValueKey::Float(f64::NAN), ValueKey::Float(f64::NAN));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::from("hi").to_string(), "hi");
        assert_eq!(ColumnType::Float.to_string(), "FLOAT");
    }
}
