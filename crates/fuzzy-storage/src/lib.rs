//! # fuzzy-storage
//!
//! The paged storage substrate of the fuzzy database: the paper's experiments
//! run on a real disk with 8 KB pages, a bounded buffer, and a commercial
//! external sort; this crate rebuilds those components over a simulated disk
//! so every physical page transfer is counted and charged through a
//! configurable cost model.
//!
//! * [`SimDisk`] — page-granular simulated disk with I/O counters, kept per
//!   disk and per thread ([`thread_io`]);
//! * [`Page`] — slotted pages holding variable-length records, and
//!   [`PageView`], the borrowed view that validates a page image and reads
//!   its records in place;
//! * [`HeapFile`] — record files with streaming bulk load, scanned with the
//!   lending cursor [`RecordScan`], which reads each page straight from the
//!   disk once and lends each record as a slice of the page image instead of
//!   copying it (the paper's buffer budgets are the operators' own: the
//!   nested loop's outer block, the sort's memory pages);
//! * [`sort::external_sort`] — bounded-memory external merge sort on a key
//!   extracted once per record read, compared by its normalized prefix
//!   first, with one byte arena per run batch;
//! * [`CostModel`] — converts I/O counts + CPU time into response time;
//! * [`codec`] — byte-level record encoding helpers.
//!
//! ## Example
//!
//! ```
//! use fuzzy_storage::{SimDisk, HeapFile};
//!
//! let disk = SimDisk::with_default_page_size();
//! let file = HeapFile::create(&disk);
//! file.load((0u32..100).map(|i| i.to_le_bytes()))?;
//! let mut scan = file.scan();
//! let (mut count, mut bytes) = (0, 0);
//! while let Some(rec) = scan.next_record() {
//!     // `rec` borrows the current page image: read it in place, no copy.
//!     bytes += rec?.len();
//!     count += 1;
//! }
//! assert_eq!((count, bytes), (100, 400));
//! // One physical read per page.
//! assert_eq!(disk.io().reads, file.num_pages());
//! # Ok::<(), fuzzy_storage::StorageError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod cost;
pub mod disk;
pub mod error;
pub mod file;
pub mod page;
pub mod sort;

pub use cost::{CostModel, Measurement};
pub use disk::{credit_thread_io, thread_io, IoSnapshot, PageId, SimDisk, DEFAULT_PAGE_SIZE};
pub use error::{panic_message, Result, StorageError};
pub use file::{HeapFile, RecordScan};
pub use page::{Page, PageView};
pub use sort::{
    estimated_initial_runs, external_sort, external_sort_parallel, external_sort_records,
    sort_keys, Prefix, SortStats,
};
