//! Relation schemas.

use crate::error::DbError;
use crate::value::{ColumnType, Value};
use std::fmt;

/// An ordered list of named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names (schemas are small and static; a
    /// duplicate is a programming error, not a runtime condition).
    pub fn new(columns: Vec<(String, ColumnType)>) -> Self {
        for i in 0..columns.len() {
            for j in i + 1..columns.len() {
                assert_ne!(
                    columns[i].0, columns[j].0,
                    "Schema: duplicate column {:?}",
                    columns[i].0
                );
            }
        }
        Schema { columns }
    }

    /// Convenience constructor from `&str` names.
    pub fn of(columns: &[(&str, ColumnType)]) -> Self {
        Schema::new(columns.iter().map(|(n, t)| (n.to_string(), *t)).collect())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize, DbError> {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
    }

    /// `(name, type)` of column `i`.
    pub fn column(&self, i: usize) -> (&str, ColumnType) {
        let (n, t) = &self.columns[i];
        (n.as_str(), *t)
    }

    /// Type of a column by name.
    pub(crate) fn type_of(&self, name: &str) -> Result<ColumnType, DbError> {
        Ok(self.columns[self.index_of(name)?].1)
    }

    /// Checks a row against the schema without consuming it: the arity
    /// matches and every value fits its column (ints fit float columns).
    pub(crate) fn validate_row(&self, row: &[Value]) -> Result<(), DbError> {
        if row.len() != self.arity() {
            return Err(DbError::ArityMismatch {
                expected: self.arity(),
                got: row.len(),
            });
        }
        for (v, (name, ty)) in row.iter().zip(&self.columns) {
            if !v.fits(*ty) {
                return Err(DbError::TypeMismatch {
                    column: name.clone(),
                    expected: *ty,
                    got: v.column_type(),
                });
            }
        }
        Ok(())
    }

    /// Projects this schema onto the named columns (preserving the given
    /// order); returns the new schema and the source indices.
    pub(crate) fn project(&self, names: &[String]) -> Result<(Schema, Vec<usize>), DbError> {
        let mut cols = Vec::with_capacity(names.len());
        let mut idx = Vec::with_capacity(names.len());
        for n in names {
            let i = self.index_of(n)?;
            idx.push(i);
            cols.push(self.columns[i].clone());
        }
        Ok((Schema { columns: cols }, idx))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (n, t)) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n} {t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::of(&[
            ("time", ColumnType::Int),
            ("r", ColumnType::Float),
            ("tag", ColumnType::Text),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("r").unwrap(), 1);
        assert_eq!(s.type_of("tag").unwrap(), ColumnType::Text);
        assert!(matches!(
            s.index_of("missing"),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn validate_row_checks_arity_and_types() {
        let s = sample();
        assert!(s
            .validate_row(&[Value::Int(1), Value::Int(2), Value::from("a")])
            .is_ok());
        assert!(matches!(
            s.validate_row(&[Value::Int(1), Value::from("x"), Value::from("a")]),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.validate_row(&[Value::Int(1)]),
            Err(DbError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn projection_reorders() {
        let s = sample();
        let (proj, idx) = s.project(&["tag".into(), "time".into()]).unwrap();
        assert_eq!(idx, vec![2, 0]);
        assert_eq!(proj.column(0).0, "tag");
        assert_eq!(proj.column(1).1, ColumnType::Int);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        Schema::of(&[("a", ColumnType::Int), ("a", ColumnType::Float)]);
    }

    #[test]
    fn display_format() {
        assert_eq!(sample().to_string(), "(time INT, r FLOAT, tag TEXT)");
    }
}
