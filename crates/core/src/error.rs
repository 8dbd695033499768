//! Engine error type.

use fuzzy_core::FuzzyError;
use fuzzy_sql::ParseError;
use fuzzy_storage::StorageError;
use std::fmt;

/// Errors produced by query planning and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// SQL could not be parsed.
    Parse(ParseError),
    /// A fuzzy-set operation failed (bad degree, unknown term, …).
    Fuzzy(FuzzyError),
    /// The storage layer failed.
    Storage(StorageError),
    /// Name resolution failed (unknown table, attribute, or ambiguity).
    Bind(String),
    /// The query shape is outside what the engine supports.
    Unsupported(String),
    /// Static plan verification rejected the plan (a transformer or
    /// optimizer bug — see `fuzzy_engine::verify`).
    Verify(String),
    /// A prepared statement's pinned plan was built against an older schema
    /// version (DDL, DEFINE TERM or ANALYZE ran since); the statement must be
    /// re-prepared.
    StalePlan {
        /// Schema version the plan was prepared against.
        planned_version: u64,
        /// The catalog's schema version at execution time.
        catalog_version: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Fuzzy(e) => write!(f, "{e}"),
            EngineError::Storage(e) => write!(f, "{e}"),
            EngineError::Bind(msg) => write!(f, "binding error: {msg}"),
            EngineError::Unsupported(msg) => write!(f, "unsupported query: {msg}"),
            EngineError::Verify(msg) => write!(f, "plan verification failed: {msg}"),
            EngineError::StalePlan { planned_version, catalog_version } => write!(
                f,
                "prepared plan is stale: planned against schema version \
                 {planned_version}, catalog is now at {catalog_version}; re-prepare the statement"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<FuzzyError> for EngineError {
    fn from(e: FuzzyError) -> Self {
        EngineError::Fuzzy(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = ParseError::at(3, "boom").into();
        assert!(e.to_string().contains("boom"));
        let e: EngineError = FuzzyError::DivisionByZero.into();
        assert!(e.to_string().contains("zero"));
        let e: EngineError = StorageError::InvalidSlot(1).into();
        assert!(e.to_string().contains("slot"));
        assert!(EngineError::Bind("no table R".into()).to_string().contains("no table R"));
        assert!(EngineError::Unsupported("cyclic".into()).to_string().contains("cyclic"));
        let e = EngineError::Verify("[V-PROP-SORT] at #2".into());
        assert!(e.to_string().contains("plan verification failed"));
        assert!(e.to_string().contains("V-PROP-SORT"));
        let e = EngineError::StalePlan { planned_version: 3, catalog_version: 5 };
        assert!(e.to_string().contains("stale"));
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
    }
}
