//! Error type for the storage engine.

use std::fmt;

/// Errors produced by the paged storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id referenced a page that does not exist on the disk.
    PageOutOfBounds(u64),
    /// A record was too large to fit in a single page.
    RecordTooLarge {
        /// Bytes the record needs (payload plus slot overhead).
        need: usize,
        /// Bytes a fresh page can offer.
        page_capacity: usize,
    },
    /// A slot index referenced a slot that does not exist in the page.
    InvalidSlot(u16),
    /// On-disk bytes failed structural validation.
    Corrupt(String),
    /// A worker thread of a parallel operation panicked; carries the panic
    /// message.
    WorkerPanic(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageOutOfBounds(id) => write!(f, "page {id} is out of bounds"),
            StorageError::RecordTooLarge { need, page_capacity } => {
                write!(f, "record of {need} bytes exceeds page capacity {page_capacity}")
            }
            StorageError::InvalidSlot(s) => write!(f, "invalid slot {s}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            StorageError::WorkerPanic(msg) => write!(f, "worker thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// The message a panicking worker thread left, for its typed error.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic payload".to_string())
}

/// Convenience result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(StorageError::PageOutOfBounds(7).to_string().contains('7'));
        assert!(StorageError::RecordTooLarge { need: 9000, page_capacity: 8188 }
            .to_string()
            .contains("9000"));
        assert!(StorageError::InvalidSlot(3).to_string().contains('3'));
        assert!(StorageError::Corrupt("bad header".into()).to_string().contains("bad header"));
        assert!(StorageError::WorkerPanic("boom".into()).to_string().contains("boom"));
    }
}
