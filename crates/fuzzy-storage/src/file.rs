//! Heap files: sequences of slotted pages holding variable-length records.
//!
//! A heap file is the storage representation of a relation (and of sort runs
//! and temporary results). Bulk loading buffers one page in memory and writes
//! it to disk when full — clearing and reusing that one buffer — so loading
//! `n` records costs exactly `ceil(bytes / page)` physical writes.
//!
//! Scanning ([`HeapFile::scan`]) reads each page straight from the disk once,
//! in storage order: one physical read, charged by [`SimDisk::read_page`],
//! which shares the in-memory backing's page image with the scan instead of
//! copying it (a later write to the page leaves that image as it was read).
//! No page cache sits between a scan and the disk — the paper's §9 I/O model
//! gives the nested loop's outer block its pages explicitly and the
//! merge-join's `Rng(r)` window holds tuples, so every page an operator needs
//! is read exactly when it is charged.
//! [`RecordScan`] holds the current page image and lends each record as a
//! slice of it ([`RecordScan::next_record`]), so a scan allocates nothing per
//! record: callers decode in place, or copy the bytes themselves when they
//! must outlive the next call.

use crate::disk::{lock, PageId, SimDisk};
use crate::error::{Result, StorageError};
use crate::page::{Page, PageView};
use std::sync::{Arc, Mutex, PoisonError};

#[derive(Debug)]
struct FileInner {
    pages: Vec<PageId>,
    record_count: u64,
}

/// A heap file on a [`SimDisk`]. Cloning shares the same file; handles may
/// cross threads (parallel sort workers each build their own run files).
#[derive(Debug, Clone)]
pub struct HeapFile {
    disk: SimDisk,
    inner: Arc<Mutex<FileInner>>,
}

impl HeapFile {
    /// Creates an empty heap file on the given disk.
    pub fn create(disk: &SimDisk) -> HeapFile {
        HeapFile {
            disk: disk.clone(),
            inner: Arc::new(Mutex::new(FileInner { pages: Vec::new(), record_count: 0 })),
        }
    }

    /// The disk this file lives on.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Number of pages in the file.
    pub fn num_pages(&self) -> u64 {
        lock(&self.inner).pages.len() as u64
    }

    /// Number of records in the file.
    pub fn num_records(&self) -> u64 {
        lock(&self.inner).record_count
    }

    /// All disk page ids of the file, in order (for catalog manifests).
    pub fn page_ids(&self) -> Vec<PageId> {
        lock(&self.inner).pages.clone()
    }

    /// Reconstructs a heap file from persisted parts (a manifest's page list
    /// and record count).
    pub fn from_parts(disk: &SimDisk, pages: Vec<PageId>, record_count: u64) -> HeapFile {
        HeapFile {
            disk: disk.clone(),
            inner: Arc::new(Mutex::new(FileInner { pages, record_count })),
        }
    }

    /// Returns the file's pages to the disk's free list if this is the last
    /// handle on the file, or gives the handle back while another clone
    /// (say, in a catalog snapshot) still holds the file. Only a file that
    /// no statement scope reclaims may be released this way — a base
    /// table's replaced file, never a temporary — so no page is freed twice.
    pub fn release(self) -> std::result::Result<(), HeapFile> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => {
                let inner = inner.into_inner().unwrap_or_else(PoisonError::into_inner);
                for page in inner.pages {
                    self.disk.free_page(page);
                }
                Ok(())
            }
            Err(inner) => Err(HeapFile { disk: self.disk, inner }),
        }
    }

    /// The disk page id of the `index`-th page of the file.
    pub fn page_id(&self, index: u32) -> Result<PageId> {
        lock(&self.inner)
            .pages
            .get(index as usize)
            .copied()
            .ok_or(StorageError::PageOutOfBounds(index as u64))
    }

    /// Scans every record of the file in storage order, reading each page
    /// from the disk once.
    pub fn scan(&self) -> RecordScan<'_> {
        RecordScan { file: self, page_index: 0, page: Arc::from([]), slots: 0, slot: 0 }
    }

    /// Opens a bulk writer. Records stream into an in-memory page that is
    /// flushed to disk when full and on `finish`.
    pub fn bulk_writer(&self) -> BulkWriter {
        BulkWriter { file: self.clone(), current: Page::new(self.disk.page_size()), pending: 0 }
    }

    /// Convenience: appends all records from an iterator.
    pub fn load<I, B>(&self, records: I) -> Result<()>
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let mut w = self.bulk_writer();
        for r in records {
            w.append(r.as_ref())?;
        }
        w.finish()
    }

    /// Appends a single record, reading and rewriting the last page if it
    /// has room (one read + one write), or allocating a fresh page. Bulk
    /// loading should use [`HeapFile::bulk_writer`] instead.
    pub fn append(&self, record: &[u8]) -> Result<()> {
        let last = {
            let inner = lock(&self.inner);
            inner.pages.last().copied()
        };
        if let Some(pid) = last {
            let mut page = Page::from_bytes(&self.disk.read_page(pid)?)?;
            if page.insert(record).is_ok() {
                self.disk.write_page(pid, page.as_bytes())?;
                lock(&self.inner).record_count += 1;
                return Ok(());
            }
        }
        let mut page = Page::new(self.disk.page_size());
        page.insert(record).map_err(|_| StorageError::RecordTooLarge {
            need: record.len(),
            page_capacity: Page::capacity(self.disk.page_size()),
        })?;
        self.push_page(&page, 1)
    }

    fn push_page(&self, page: &Page, records_in_page: u64) -> Result<()> {
        let pid = self.disk.alloc_page();
        self.disk.write_page(pid, page.as_bytes())?;
        let mut inner = lock(&self.inner);
        inner.pages.push(pid);
        inner.record_count += records_in_page;
        Ok(())
    }
}

/// Streaming bulk loader for a heap file.
pub struct BulkWriter {
    file: HeapFile,
    current: Page,
    pending: u64,
}

impl BulkWriter {
    /// Appends one record, flushing the current page if it is full.
    pub fn append(&mut self, record: &[u8]) -> Result<()> {
        if self.current.insert(record).is_err() {
            if self.pending == 0 {
                // Fresh page still cannot hold it: genuinely oversized.
                return Err(StorageError::RecordTooLarge {
                    need: record.len(),
                    page_capacity: Page::capacity(self.file.disk.page_size()),
                });
            }
            self.flush()?;
            self.current.insert(record).map_err(|_| StorageError::RecordTooLarge {
                need: record.len(),
                page_capacity: Page::capacity(self.file.disk.page_size()),
            })?;
        }
        self.pending += 1;
        Ok(())
    }

    /// Writes the current page out and clears it for reuse.
    fn flush(&mut self) -> Result<()> {
        if self.pending > 0 {
            self.file.push_page(&self.current, self.pending)?;
            self.current.clear();
            self.pending = 0;
        }
        Ok(())
    }

    /// Flushes the final partial page. Must be called; dropping without
    /// finishing loses buffered records (deliberately, so errors are explicit).
    pub fn finish(mut self) -> Result<()> {
        self.flush()
    }
}

/// A lending cursor over all records of a heap file, in `(page, slot)`
/// order. It holds the current page's image, validates each page header once
/// when it reaches the page, and lends every record as a slice of the image.
pub struct RecordScan<'a> {
    file: &'a HeapFile,
    /// Index of the next page to read.
    page_index: u32,
    /// The current page's image, its header already validated (empty, with
    /// zero slots, before the first read).
    page: Arc<[u8]>,
    slots: u16,
    slot: u16,
}

impl RecordScan<'_> {
    /// The next record, borrowed from the current page image until the next
    /// call; `None` after the last record. A page that fails to read or whose
    /// header or slot is corrupt yields its error.
    pub fn next_record(&mut self) -> Option<Result<&[u8]>> {
        while self.slot >= self.slots {
            if u64::from(self.page_index) >= self.file.num_pages() {
                return None;
            }
            if let Err(e) = self.read_page() {
                return Some(Err(e));
            }
        }
        let slot = self.slot;
        self.slot += 1;
        Some(PageView::validated(&self.page).get(slot))
    }

    /// Reads the next page of the file and validates its header.
    fn read_page(&mut self) -> Result<()> {
        let pid = self.file.page_id(self.page_index)?;
        self.page_index += 1;
        let page = self.file.disk.read_page(pid)?;
        self.slots = PageView::new(&page)?.slot_count();
        self.slot = 0;
        self.page = page;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoSnapshot;

    #[test]
    fn load_and_count() {
        let disk = SimDisk::new(128);
        let f = HeapFile::create(&disk);
        f.load((0..50u32).map(|i| i.to_le_bytes())).unwrap();
        assert_eq!(f.num_records(), 50);
        // 124 usable bytes per page, 8 bytes per 4-byte record: 15 per page.
        assert_eq!(f.num_pages(), 4);
        // Bulk load writes each page exactly once.
        assert_eq!(disk.io().writes, 4);
        assert_eq!(disk.io().reads, 0);
    }

    #[test]
    fn scan_roundtrip() {
        let disk = SimDisk::new(128);
        let f = HeapFile::create(&disk);
        let records: Vec<Vec<u8>> = (0..40u32).map(|i| i.to_le_bytes().to_vec()).collect();
        f.load(records.iter()).unwrap();
        let mut scan = f.scan();
        let mut got: Vec<Vec<u8>> = Vec::new();
        while let Some(rec) = scan.next_record() {
            got.push(rec.unwrap().to_vec());
        }
        assert_eq!(got, records);
        // One physical read per page, no page read twice.
        assert_eq!(disk.io().reads, f.num_pages());
    }

    #[test]
    fn oversized_record_fails_cleanly() {
        let disk = SimDisk::new(128);
        let f = HeapFile::create(&disk);
        let mut w = f.bulk_writer();
        w.append(b"ok").unwrap();
        let err = w.append(&[0u8; 1000]).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
    }

    #[test]
    fn empty_file() {
        let disk = SimDisk::new(128);
        let f = HeapFile::create(&disk);
        f.load(std::iter::empty::<&[u8]>()).unwrap();
        assert_eq!(f.num_pages(), 0);
        assert_eq!(f.num_records(), 0);
        assert!(f.scan().next_record().is_none());
        assert_eq!(disk.io().reads, 0);
    }

    #[test]
    fn release_frees_pages_only_from_the_last_handle() {
        let disk = SimDisk::new(128);
        let f = HeapFile::create(&disk);
        f.load((0..50u32).map(|i| i.to_le_bytes())).unwrap();
        let snapshot = f.clone();
        let f = f.release().expect_err("a clone still holds the file");
        assert_eq!(disk.live_pages(), 4);
        drop(snapshot);
        assert!(f.release().is_ok());
        assert_eq!(disk.live_pages(), 0);
    }

    /// A thread that panics while holding the file's lock leaves the file
    /// usable: appends, scans and counts still work, and the I/O is exact.
    #[test]
    fn a_poisoned_file_lock_is_recovered() {
        let disk = SimDisk::new(128);
        let f = HeapFile::create(&disk);
        f.load((0..20u32).map(|i| i.to_le_bytes())).unwrap();
        let held = f.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = held.inner.lock();
            panic!("poisoning the file lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(f.inner.is_poisoned());
        let before = disk.io();
        f.append(&20u32.to_le_bytes()).unwrap();
        assert_eq!(disk.io().since(&before), IoSnapshot { reads: 1, writes: 1 });
        assert_eq!(f.num_records(), 21);
        let mut scan = f.scan();
        let mut n = 0u32;
        while let Some(rec) = scan.next_record() {
            assert_eq!(rec.unwrap(), n.to_le_bytes());
            n += 1;
        }
        assert_eq!(n, 21);
        assert!(f.release().is_ok());
        assert_eq!(disk.live_pages(), 0);
    }

    #[test]
    fn page_id_bounds() {
        let disk = SimDisk::new(128);
        let f = HeapFile::create(&disk);
        f.load([b"x"]).unwrap();
        assert!(f.page_id(0).is_ok());
        assert!(f.page_id(1).is_err());
    }
}
