//! Error type for the probabilistic database substrate.

use crate::value::ColumnType;
use std::fmt;

/// Errors surfaced by the database layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Referenced column does not exist.
    UnknownColumn(String),
    /// Referenced table/view does not exist.
    UnknownTable(String),
    /// A table/view with this name already exists.
    DuplicateTable(String),
    /// Row arity differs from the schema.
    ArityMismatch {
        /// Schema arity.
        expected: usize,
        /// Row length.
        got: usize,
    },
    /// Value type incompatible with the column type.
    TypeMismatch {
        /// Offending column.
        column: String,
        /// Column type.
        expected: ColumnType,
        /// Value type supplied.
        got: ColumnType,
    },
    /// A probability outside `[0, 1]` was supplied.
    InvalidProbability(f64),
    /// SQL text could not be parsed.
    Parse(String),
    /// Statement is valid but cannot be executed in this context (e.g. a
    /// DENSITY view submitted to the bare catalog, below the engine that
    /// builds it).
    Unsupported(String),
    /// A mutating statement was issued on the read-only query path.
    ReadOnly(String),
    /// An invalid possible-worlds sampling request (bad executor
    /// configuration, or a `WITH WORLDS` clause on a relation that cannot
    /// be sampled).
    InvalidWorlds(String),
    /// The statement parsed but no valid query plan exists for it (e.g. a
    /// projection column missing from `GROUP BY`, or `ORDER BY` on an
    /// aggregate query).
    Plan(String),
    /// The density-view handler reported a failure.
    ViewBuild(String),
    /// The persistent storage layer reported a failure (I/O error, corrupt
    /// page, poisoned handle). Carried as text so the substrate stays free
    /// of a storage dependency.
    Storage(String),
}

impl DbError {
    /// A text column where a number is read.
    pub(crate) fn not_numeric(column: &str) -> DbError {
        let (expected, got) = (ColumnType::Float, ColumnType::Text);
        DbError::TypeMismatch {
            column: column.to_string(),
            expected,
            got,
        }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            DbError::UnknownTable(t) => write!(f, "unknown table or view: {t}"),
            DbError::DuplicateTable(t) => write!(f, "table or view already exists: {t}"),
            DbError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "arity mismatch: schema has {expected} columns, row has {got}"
                )
            }
            DbError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch in column {column}: expected {expected}, got {got}"
            ),
            DbError::InvalidProbability(p) => {
                write!(f, "probability out of range [0,1]: {p}")
            }
            DbError::Parse(msg) => write!(f, "parse error: {msg}"),
            DbError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            DbError::ReadOnly(msg) => {
                write!(
                    f,
                    "statement mutates the database, use the write path: {msg}"
                )
            }
            DbError::InvalidWorlds(msg) => {
                write!(f, "invalid possible-worlds request: {msg}")
            }
            DbError::Plan(msg) => write!(f, "cannot plan query: {msg}"),
            DbError::ViewBuild(msg) => write!(f, "view build failed: {msg}"),
            DbError::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(DbError::UnknownTable("raw".into())
            .to_string()
            .contains("raw"));
        assert!(DbError::InvalidProbability(1.5).to_string().contains("1.5"));
        let e = DbError::TypeMismatch {
            column: "r".into(),
            expected: ColumnType::Float,
            got: ColumnType::Text,
        };
        let s = e.to_string();
        assert!(s.contains('r') && s.contains("FLOAT") && s.contains("TEXT"));
    }
}
