//! Storage-layer errors.

use std::fmt;
use tspdb_probdb::codec::DecodeError;
use tspdb_probdb::DbError;

/// Everything that can go wrong under the pager and the write-ahead log.
#[derive(Debug)]
pub enum StorageError {
    /// The operating system said no.
    Io(std::io::Error),
    /// A page read back from disk failed its checksum or carried an
    /// unexpected kind — the file is damaged or not a tspdb database.
    CorruptPage {
        /// Page id that failed verification.
        page: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// The database file's meta page is not a tspdb database (bad magic,
    /// unsupported version, mismatched page size).
    BadDatabase(String),
    /// A tuple is too large to fit a single leaf page.
    TupleTooLarge {
        /// Encoded size of the offending tuple.
        size: usize,
        /// Payload capacity of a leaf page.
        max: usize,
    },
    /// The relation is not present in the on-disk catalog.
    UnknownRelation(String),
    /// A fault-injection crash point fired (tests only): the write path
    /// stopped exactly where a real crash would have, and the storage
    /// handle is poisoned from here on.
    InjectedCrash(&'static str),
    /// A previous injected crash poisoned this handle; re-open the
    /// directory to recover.
    Poisoned,
    /// The database substrate rejected recovered tuples — the on-disk
    /// state disagrees with its own catalog entry.
    Db(DbError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O: {e}"),
            StorageError::CorruptPage { page, reason } => {
                write!(f, "page {page} is corrupt: {reason}")
            }
            StorageError::BadDatabase(msg) => write!(f, "not a tspdb database: {msg}"),
            StorageError::TupleTooLarge { size, max } => {
                write!(
                    f,
                    "tuple of {size} bytes exceeds the {max}-byte leaf capacity"
                )
            }
            StorageError::UnknownRelation(name) => {
                write!(f, "relation {name:?} is not in the on-disk catalog")
            }
            StorageError::InjectedCrash(point) => {
                write!(f, "injected crash at {point}")
            }
            StorageError::Poisoned => {
                write!(
                    f,
                    "storage handle poisoned by an injected crash; re-open to recover"
                )
            }
            StorageError::Db(e) => write!(f, "recovered tuples rejected: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    /// Bytes of page `page` that fail to decode: the page is corrupt.
    /// (WAL records, which live outside the page file, report page 0.)
    pub(crate) fn corrupt(page: u64) -> impl Fn(DecodeError) -> StorageError + Copy {
        move |e| StorageError::CorruptPage { page, reason: e.0 }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<DbError> for StorageError {
    fn from(e: DbError) -> Self {
        StorageError::Db(e)
    }
}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e.to_string())
    }
}
