//! The simulated disk.
//!
//! The paper's experiments ran on a SUN SPARC/IPC with a real disk, 8 KB
//! pages, and a 2 MB buffer. We substitute a simulated disk: fixed-size
//! pages behind the same page-granular interface a disk driver would offer,
//! with every physical page read and write counted. The cost model charges a
//! configurable per-page latency, so response times have the same *shape* as
//! the paper's (reads and writes are what the algorithms control), while
//! remaining reproducible on any machine.
//!
//! Two backings share the interface: the default in-memory vector (fast,
//! reproducible — what the experiments use) and a real file
//! ([`SimDisk::open_file`]) for persistence across processes.
//!
//! Every transfer is counted twice: on the disk ([`SimDisk::io`], what all
//! threads did to it) and on the thread that made it ([`thread_io`]). A
//! statement meters its operators with the thread tally, so sessions that
//! share the disk never add to each other's counts; a thread that hands
//! work to a helper thread takes the helper's tally back with
//! [`credit_thread_io`].

use crate::error::{Result, StorageError};
use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identifier of a page on a disk.
pub type PageId = u64;

/// Default page size (8 KB, matching the paper's experimental setup).
pub const DEFAULT_PAGE_SIZE: usize = 8192;

#[derive(Debug)]
enum Backing {
    /// Page images shared with the readers holding them: a write replaces
    /// an image some reader still holds instead of changing it.
    Memory(Vec<Arc<[u8]>>),
    File {
        file: File,
        num_pages: u64,
    },
}

/// Shared disk state. The page store sits behind a mutex (parallel sort and
/// join workers write runs concurrently); the I/O counters are atomics so
/// accounting never extends the critical section and stays exact regardless
/// of thread interleaving. Every lock is taken through [`lock`], so a panic
/// elsewhere never makes the disk unusable.
#[derive(Debug)]
struct DiskInner {
    page_size: usize,
    backing: Mutex<Backing>,
    /// Reclaimed page ids available for reuse (LIFO). Guarded separately
    /// from `backing`; the two locks are never held at the same time.
    free: Mutex<Vec<PageId>>,
    /// Statement-scoped allocation log. While at least one scope is open,
    /// every allocation is recorded; the log drains only when the *last*
    /// scope closes, so overlapping statements (concurrent sessions) can
    /// never reclaim a temporary another statement still reads.
    alloc_log: Mutex<AllocLog>,
    reads: AtomicU64,
    writes: AtomicU64,
}

/// Reference-counted allocation-log state: `depth` counts the statement
/// scopes currently open (overlapping statements from concurrent sessions
/// stack), `pages` accumulates every id allocated while any scope is open.
#[derive(Debug, Default)]
struct AllocLog {
    depth: u64,
    pages: Vec<PageId>,
}

/// A shareable handle to a simulated disk. Cloning shares the same disk, and
/// handles may be used from multiple threads.
#[derive(Debug, Clone)]
pub struct SimDisk {
    inner: Arc<DiskInner>,
}

/// A snapshot of disk I/O counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Physical page reads since disk creation.
    pub reads: u64,
    /// Physical page writes since disk creation.
    pub writes: u64,
}

thread_local! {
    /// The page transfers this thread made, on any disk, plus those credited
    /// to it ([`credit_thread_io`]).
    static THREAD_IO: Cell<IoSnapshot> = const { Cell::new(IoSnapshot { reads: 0, writes: 0 }) };
}

/// The calling thread's page-transfer tally: every page it read or wrote on
/// any disk, plus what helper threads' tallies were credited to it. Deltas of
/// it are exact under concurrency, since no other thread changes it.
pub fn thread_io() -> IoSnapshot {
    THREAD_IO.get()
}

/// Adds `delta` to the calling thread's tally: a transfer it made, or a
/// helper thread's transfers handed back to the thread it worked for.
pub fn credit_thread_io(delta: IoSnapshot) {
    THREAD_IO.set(THREAD_IO.get().plus(&delta));
}

impl IoSnapshot {
    /// Total physical page transfers.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot { reads: self.reads - earlier.reads, writes: self.writes - earlier.writes }
    }

    /// The sum of two snapshots' counters.
    pub fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot { reads: self.reads + other.reads, writes: self.writes + other.writes }
    }
}

impl SimDisk {
    /// Creates an empty in-memory disk with the given page size.
    pub fn new(page_size: usize) -> SimDisk {
        assert!(page_size >= 64, "page size must be at least 64 bytes");
        SimDisk {
            inner: Arc::new(DiskInner {
                page_size,
                backing: Mutex::new(Backing::Memory(Vec::new())),
                free: Mutex::new(Vec::new()),
                alloc_log: Mutex::new(AllocLog::default()),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
            }),
        }
    }

    /// Opens (creating if needed) a file-backed disk. Existing page content
    /// is preserved; the file length must be a multiple of the page size.
    pub fn open_file(path: impl AsRef<std::path::Path>, page_size: usize) -> Result<SimDisk> {
        assert!(page_size >= 64, "page size must be at least 64 bytes");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StorageError::Corrupt(format!("cannot open disk file: {e}")))?;
        let len = file
            .metadata()
            .map_err(|e| StorageError::Corrupt(format!("cannot stat disk file: {e}")))?
            .len();
        if len % page_size as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "disk file length {len} is not a multiple of the page size {page_size}"
            )));
        }
        Ok(SimDisk {
            inner: Arc::new(DiskInner {
                page_size,
                backing: Mutex::new(Backing::File { file, num_pages: len / page_size as u64 }),
                free: Mutex::new(Vec::new()),
                alloc_log: Mutex::new(AllocLog::default()),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
            }),
        })
    }

    /// Creates an empty disk with the default 8 KB page size.
    pub fn with_default_page_size() -> SimDisk {
        SimDisk::new(DEFAULT_PAGE_SIZE)
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u64 {
        match &*lock(&self.inner.backing) {
            Backing::Memory(pages) => pages.len() as u64,
            Backing::File { num_pages, .. } => *num_pages,
        }
    }

    /// Allocates a zeroed page and returns its id, reusing a reclaimed page
    /// when one is available. Allocation itself is not charged as an I/O;
    /// the subsequent write is.
    pub fn alloc_page(&self) -> PageId {
        let size = self.inner.page_size;
        let reused = lock(&self.inner.free).pop();
        let id = match reused {
            Some(id) => {
                // Scrub the recycled page (uncharged, like allocation) so
                // the zeroed-page contract holds for reuse too.
                match &mut *lock(&self.inner.backing) {
                    Backing::Memory(pages) => {
                        if let Some(p) = pages.get_mut(id as usize) {
                            match Arc::get_mut(p) {
                                Some(image) => image.fill(0),
                                None => *p = zeroed(size),
                            }
                        }
                    }
                    Backing::File { file, .. } => {
                        let _ = file
                            .seek(SeekFrom::Start(id * size as u64))
                            .and_then(|_| file.write_all(&vec![0u8; size]));
                    }
                }
                id
            }
            None => match &mut *lock(&self.inner.backing) {
                Backing::Memory(pages) => {
                    let id = pages.len() as PageId;
                    pages.push(zeroed(size));
                    id
                }
                Backing::File { file, num_pages } => {
                    let id = *num_pages;
                    *num_pages += 1;
                    // Extend the file eagerly so short reads cannot happen.
                    let _ = file.set_len(*num_pages * size as u64);
                    id
                }
            },
        };
        let mut log = lock(&self.inner.alloc_log);
        if log.depth > 0 {
            log.pages.push(id);
        }
        id
    }

    /// Returns a page to the free list for reuse by a later
    /// [`SimDisk::alloc_page`]. Reading or writing a freed page before it is
    /// re-allocated is a logic error (the simulator does not police it, just
    /// as a real disk would not).
    pub fn free_page(&self, id: PageId) {
        lock(&self.inner.free).push(id);
    }

    /// Number of allocated pages not currently on the free list — the disk
    /// footprint that is actually owned by live files.
    pub fn live_pages(&self) -> u64 {
        let total = self.num_pages();
        let free = lock(&self.inner.free).len() as u64;
        total - free
    }

    /// Opens a statement scope: every page id allocated from now on is
    /// recorded so statement executors can reclaim their temporaries at
    /// statement end. Scopes stack: concurrent sessions each open one, and
    /// the shared log drains only when the last scope closes (see
    /// [`SimDisk::take_alloc_log`]).
    pub fn begin_alloc_log(&self) {
        lock(&self.inner.alloc_log).depth += 1;
    }

    /// Closes one statement scope. If it was the last open scope, returns
    /// every id allocated while any scope was open — all of them belong to
    /// statements that have already finished, so the caller may free them.
    /// While other scopes remain open (another session is mid-statement)
    /// this returns an empty list: the pages drain when the last concurrent
    /// statement closes its scope, so no live temporary is ever recycled.
    /// A call without a matching [`SimDisk::begin_alloc_log`] is a no-op.
    pub fn take_alloc_log(&self) -> Vec<PageId> {
        let mut log = lock(&self.inner.alloc_log);
        log.depth = log.depth.saturating_sub(1);
        if log.depth == 0 {
            std::mem::take(&mut log.pages)
        } else {
            Vec::new()
        }
    }

    /// Reads a page, charging one physical read. The image comes back as a
    /// shared buffer a scan can hold while it lends the page's records. The
    /// in-memory backing copies nothing: it hands out its own image, which
    /// later writes to the page leave as it was read (see
    /// [`SimDisk::write_page`]); the file backing reads it into a new buffer.
    pub fn read_page(&self, id: PageId) -> Result<Arc<[u8]>> {
        let size = self.inner.page_size;
        let page: Arc<[u8]> = match &mut *lock(&self.inner.backing) {
            Backing::Memory(pages) => {
                Arc::clone(pages.get(id as usize).ok_or(StorageError::PageOutOfBounds(id))?)
            }
            Backing::File { file, num_pages } => {
                if id >= *num_pages {
                    return Err(StorageError::PageOutOfBounds(id));
                }
                let mut buf = vec![0u8; size];
                file.seek(SeekFrom::Start(id * size as u64))
                    .and_then(|_| file.read_exact(&mut buf))
                    .map_err(|e| StorageError::Corrupt(format!("page read failed: {e}")))?;
                Arc::from(buf)
            }
        };
        self.inner.reads.fetch_add(1, Ordering::Relaxed);
        credit_thread_io(IoSnapshot { reads: 1, writes: 0 });
        Ok(page)
    }

    /// Writes a full page, charging one physical write. On the in-memory
    /// backing the page's image is overwritten in place when no reader holds
    /// it, and replaced by a new image when one does, so every image
    /// [`SimDisk::read_page`] returned keeps the bytes it was read with.
    pub fn write_page(&self, id: PageId, data: &[u8]) -> Result<()> {
        let size = self.inner.page_size;
        if data.len() != size {
            return Err(StorageError::Corrupt(format!(
                "page write of {} bytes to a disk with {size}-byte pages",
                data.len(),
            )));
        }
        match &mut *lock(&self.inner.backing) {
            Backing::Memory(pages) => {
                let idx = id as usize;
                if idx >= pages.len() {
                    return Err(StorageError::PageOutOfBounds(id));
                }
                let page = &mut pages[idx];
                match Arc::get_mut(page) {
                    Some(image) => image.copy_from_slice(data),
                    None => *page = Arc::from(data),
                }
            }
            Backing::File { file, num_pages } => {
                if id >= *num_pages {
                    return Err(StorageError::PageOutOfBounds(id));
                }
                file.seek(SeekFrom::Start(id * size as u64))
                    .and_then(|_| file.write_all(data))
                    .map_err(|e| StorageError::Corrupt(format!("page write failed: {e}")))?;
            }
        }
        self.inner.writes.fetch_add(1, Ordering::Relaxed);
        credit_thread_io(IoSnapshot { reads: 0, writes: 1 });
        Ok(())
    }

    /// Current I/O counters: every thread's transfers on this disk (see
    /// [`thread_io`] for one thread's).
    pub fn io(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.inner.reads.load(Ordering::Relaxed),
            writes: self.inner.writes.load(Ordering::Relaxed),
        }
    }

    /// Resets the I/O counters (between experiment legs).
    pub fn reset_io(&self) {
        self.inner.reads.store(0, Ordering::Relaxed);
        self.inner.writes.store(0, Ordering::Relaxed);
    }
}

/// Locks `m`, recovering the guard if a thread panicked while holding it.
/// Every storage critical section leaves its state consistent — a
/// length-checked copy, a `Vec` push or pop, an `Arc` clone — so a poisoned
/// lock guards valid data, and the disk stays usable for other sessions.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A new zeroed page image of `size` bytes.
fn zeroed(size: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0u8, size).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let disk = SimDisk::new(128);
        let p = disk.alloc_page();
        assert_eq!(disk.num_pages(), 1);
        let mut data = vec![0u8; 128];
        data[0] = 42;
        data[127] = 7;
        disk.write_page(p, &data).unwrap();
        let back = disk.read_page(p).unwrap();
        assert_eq!(&back[..], &data[..]);
    }

    #[test]
    fn io_accounting() {
        let disk = SimDisk::new(128);
        let p = disk.alloc_page();
        assert_eq!(disk.io(), IoSnapshot { reads: 0, writes: 0 });
        disk.write_page(p, &[0u8; 128]).unwrap();
        disk.read_page(p).unwrap();
        disk.read_page(p).unwrap();
        let io = disk.io();
        assert_eq!(io.reads, 2);
        assert_eq!(io.writes, 1);
        assert_eq!(io.total(), 3);
        let before = io;
        disk.read_page(p).unwrap();
        assert_eq!(disk.io().since(&before), IoSnapshot { reads: 1, writes: 0 });
        disk.reset_io();
        assert_eq!(disk.io().total(), 0);
    }

    /// Each thread's tally counts its own transfers only, while the disk
    /// counts everyone's; a credit hands a helper's tally back.
    #[test]
    fn thread_tallies_count_their_own_transfers() {
        let disk = SimDisk::new(128);
        let p = disk.alloc_page();
        let mine = thread_io();
        disk.write_page(p, &[1u8; 128]).unwrap();
        let helper = {
            let disk = disk.clone();
            std::thread::spawn(move || {
                let start = thread_io();
                for _ in 0..3 {
                    disk.read_page(p).unwrap();
                }
                thread_io().since(&start)
            })
            .join()
            .unwrap()
        };
        assert_eq!(helper, IoSnapshot { reads: 3, writes: 0 });
        disk.read_page(p).unwrap();
        assert_eq!(thread_io().since(&mine), IoSnapshot { reads: 1, writes: 1 });
        assert_eq!(disk.io(), IoSnapshot { reads: 4, writes: 1 });
        credit_thread_io(helper);
        assert_eq!(thread_io().since(&mine), disk.io());
    }

    #[test]
    fn out_of_bounds_and_bad_sizes() {
        let disk = SimDisk::new(128);
        assert_eq!(disk.read_page(0), Err(StorageError::PageOutOfBounds(0)));
        let p = disk.alloc_page();
        assert!(matches!(disk.write_page(p, &[0u8; 64]), Err(StorageError::Corrupt(_))));
        assert_eq!(disk.write_page(99, &[0u8; 128]), Err(StorageError::PageOutOfBounds(99)));
    }

    #[test]
    fn clones_share_state() {
        let disk = SimDisk::new(128);
        let other = disk.clone();
        let p = other.alloc_page();
        disk.write_page(p, &[1u8; 128]).unwrap();
        assert_eq!(other.read_page(p).unwrap()[0], 1);
        assert_eq!(disk.io().reads, 1);
    }

    /// An image held from `read_page` keeps the bytes it was read with: a
    /// later write, and a free followed by the page's re-allocation (which
    /// scrubs it), install new images instead of changing the held one. New
    /// reads see the new bytes, and each read is charged once.
    #[test]
    fn held_images_keep_the_bytes_they_were_read_with() {
        let disk = SimDisk::new(128);
        let p = disk.alloc_page();
        disk.write_page(p, &[1u8; 128]).unwrap();
        let first = disk.read_page(p).unwrap();
        disk.write_page(p, &[2u8; 128]).unwrap();
        assert!(first.iter().all(|b| *b == 1), "a write leaves a held image alone");
        let second = disk.read_page(p).unwrap();
        assert!(second.iter().all(|b| *b == 2), "a new read sees the write");
        disk.free_page(p);
        assert_eq!(disk.alloc_page(), p);
        assert!(second.iter().all(|b| *b == 2), "re-allocation leaves a held image alone");
        assert!(disk.read_page(p).unwrap().iter().all(|b| *b == 0), "and scrubs the page");
        // With no image held, a write lands in place and reads still see it.
        disk.write_page(p, &[3u8; 128]).unwrap();
        assert!(disk.read_page(p).unwrap().iter().all(|b| *b == 3));
        assert!(first.iter().all(|b| *b == 1));
        assert_eq!(disk.io(), IoSnapshot { reads: 4, writes: 3 });
    }

    /// A thread that panics while holding any of the disk's locks leaves the
    /// disk usable: reads, writes, allocation, freeing and the statement
    /// allocation log still work, and the I/O counters stay exact.
    #[test]
    fn poisoned_disk_locks_are_recovered() {
        let disk = SimDisk::new(128);
        let p0 = disk.alloc_page();
        disk.write_page(p0, &[5u8; 128]).unwrap();
        let held = disk.clone();
        let panicked = std::thread::spawn(move || {
            let _backing = held.inner.backing.lock();
            let _free = held.inner.free.lock();
            let _log = held.inner.alloc_log.lock();
            panic!("poisoning the disk locks");
        })
        .join();
        assert!(panicked.is_err());
        let inner = &disk.inner;
        assert!(inner.backing.is_poisoned() && inner.free.is_poisoned());
        assert!(inner.alloc_log.is_poisoned());
        assert_eq!(disk.read_page(p0).unwrap()[0], 5);
        disk.begin_alloc_log();
        let p1 = disk.alloc_page();
        disk.write_page(p1, &[6u8; 128]).unwrap();
        assert_eq!(disk.read_page(p1).unwrap()[127], 6);
        assert_eq!(disk.take_alloc_log(), vec![p1]);
        disk.free_page(p1);
        assert_eq!(disk.live_pages(), 1);
        assert_eq!(disk.alloc_page(), p1, "the freed page is recycled");
        assert!(disk.read_page(p1).unwrap().iter().all(|b| *b == 0));
        assert_eq!(disk.num_pages(), 2);
        assert_eq!(disk.io(), IoSnapshot { reads: 3, writes: 2 });
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn tiny_pages_rejected() {
        SimDisk::new(16);
    }

    #[test]
    fn freed_pages_are_reused_and_zeroed() {
        let disk = SimDisk::new(128);
        let p0 = disk.alloc_page();
        disk.write_page(p0, &[9u8; 128]).unwrap();
        disk.free_page(p0);
        assert_eq!(disk.live_pages(), 0);
        assert_eq!(disk.num_pages(), 1, "freeing does not shrink the backing");
        let p1 = disk.alloc_page();
        assert_eq!(p1, p0, "the freed page is recycled");
        assert_eq!(disk.live_pages(), 1);
        assert!(disk.read_page(p1).unwrap().iter().all(|b| *b == 0), "recycled page is scrubbed");
    }

    #[test]
    fn alloc_log_captures_statement_temporaries() {
        let disk = SimDisk::new(128);
        let base = disk.alloc_page();
        disk.begin_alloc_log();
        let t0 = disk.alloc_page();
        let t1 = disk.alloc_page();
        let log = disk.take_alloc_log();
        assert_eq!(log, vec![t0, t1], "only pages allocated under the log are recorded");
        assert!(!log.contains(&base));
        for id in log {
            disk.free_page(id);
        }
        assert_eq!(disk.live_pages(), 1);
        // With no active log, allocations are not recorded.
        let _ = disk.alloc_page();
        assert!(disk.take_alloc_log().is_empty());
    }

    /// Overlapping statement scopes (concurrent sessions): the first scope
    /// to close gets nothing back — its temporaries might still be read by
    /// the other statement — and the last scope drains everything.
    #[test]
    fn overlapping_alloc_scopes_drain_only_at_the_last_close() {
        let disk = SimDisk::new(128);
        disk.begin_alloc_log(); // statement A
        let a0 = disk.alloc_page();
        disk.begin_alloc_log(); // statement B, concurrent with A
        let b0 = disk.alloc_page();
        // A finishes first: nothing is reclaimable while B runs, so A's
        // temporary cannot be recycled out from under B.
        assert!(disk.take_alloc_log().is_empty());
        let b1 = disk.alloc_page();
        assert_eq!(
            disk.take_alloc_log(),
            vec![a0, b0, b1],
            "the last close drains every page allocated under any scope"
        );
        // Unbalanced closes are no-ops.
        assert!(disk.take_alloc_log().is_empty());
    }
}

#[cfg(test)]
mod file_backing_tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fuzzy_db_disk_{tag}_{}", std::process::id()));
        p
    }

    #[test]
    fn file_backed_roundtrip_and_persistence() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let disk = SimDisk::open_file(&path, 128).unwrap();
            let p0 = disk.alloc_page();
            let p1 = disk.alloc_page();
            disk.write_page(p0, &[7u8; 128]).unwrap();
            disk.write_page(p1, &[9u8; 128]).unwrap();
            assert_eq!(disk.io().writes, 2);
        }
        // Reopen: pages survive the process boundary (here, the handle).
        {
            let disk = SimDisk::open_file(&path, 128).unwrap();
            assert_eq!(disk.num_pages(), 2);
            assert_eq!(disk.read_page(0).unwrap()[0], 7);
            assert_eq!(disk.read_page(1).unwrap()[127], 9);
            assert!(disk.read_page(2).is_err());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backed_rejects_misaligned_files() {
        let path = temp_path("misaligned");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(matches!(SimDisk::open_file(&path, 128), Err(StorageError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn heap_file_and_sort_work_on_file_backing() {
        let path = temp_path("heap");
        let _ = std::fs::remove_file(&path);
        let disk = SimDisk::open_file(&path, 256).unwrap();
        let f = crate::file::HeapFile::create(&disk);
        f.load((0..200u32).rev().map(|i| i.to_le_bytes())).unwrap();
        let (sorted, _) = crate::sort::external_sort(
            &disk,
            &f,
            2,
            |rec| {
                let k = u32::from_le_bytes(rec[..4].try_into().unwrap());
                Ok(([u64::from(k), 0], k))
            },
            u32::cmp,
        )
        .unwrap();
        let mut scan = sorted.scan();
        let first = scan.next_record().unwrap().unwrap();
        assert_eq!(u32::from_le_bytes(first[..4].try_into().unwrap()), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
