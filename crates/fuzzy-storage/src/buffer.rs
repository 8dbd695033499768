//! The buffer pool.
//!
//! All page reads performed by query operators go through a buffer pool with
//! a fixed frame budget and LRU replacement. The paper's cost analysis
//! depends on this structure: the nested-loop join allocates one page to the
//! inner relation and the rest to the outer (Section 9), while the extended
//! merge-join holds one page of `R` plus the pages of `S` spanned by the
//! current `Rng(r)` (Section 3) — if they fit, each page of `S` is read
//! exactly once; if not, LRU causes the re-reads a real system would incur.
//!
//! Frames hold immutable page images (`Arc<[u8]>`), so an operator can keep a
//! cheap handle to a page while the pool replaces the frame; that models
//! pinning without reference-counted pin bookkeeping leaking into operators.
//! A page miss copies the image once, out of the disk backing into the frame;
//! nothing copies it again. [`RecordScan`] holds its current frame and lends
//! each record as a slice of that image ([`RecordScan::next_record`]), so a
//! scan allocates nothing per record: callers decode in place, or copy the
//! bytes themselves when they must outlive the next call.

use crate::disk::{PageId, SimDisk};
use crate::error::Result;
use crate::file::HeapFile;
use crate::page::PageView;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Hit/miss statistics of a buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total page requests (`hits + misses` always equals `requests`).
    pub requests: u64,
    /// Requests satisfied from a resident frame.
    pub hits: u64,
    /// Requests that required a physical read.
    pub misses: u64,
}

struct PoolInner {
    frames: HashMap<PageId, Arc<[u8]>>,
    lru: Vec<PageId>, // least-recently-used first
    capacity: usize,
    stats: PoolStats,
}

/// An LRU buffer pool over a [`SimDisk`]. Cloning shares the pool; a pool
/// may be used from multiple threads (frames are immutable `Arc<[u8]>`
/// images, the replacement state sits behind a mutex).
#[derive(Clone)]
pub struct BufferPool {
    disk: SimDisk,
    inner: Arc<Mutex<PoolInner>>,
}

impl BufferPool {
    /// Creates a pool with a budget of `capacity` frames (pages).
    pub fn new(disk: &SimDisk, capacity: usize) -> BufferPool {
        assert!(capacity >= 1, "a buffer pool needs at least one frame");
        BufferPool {
            disk: disk.clone(),
            inner: Arc::new(Mutex::new(PoolInner {
                frames: HashMap::with_capacity(capacity),
                lru: Vec::with_capacity(capacity),
                capacity,
                stats: PoolStats::default(),
            })),
        }
    }

    /// The frame budget.
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("pool lock").capacity
    }

    /// The disk behind this pool.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Fetches a page image, reading from disk on a miss and evicting the
    /// least recently used frame if the pool is full.
    pub fn get(&self, id: PageId) -> Result<Arc<[u8]>> {
        let mut inner = self.inner.lock().expect("pool lock");
        inner.stats.requests += 1;
        if let Some(frame) = inner.frames.get(&id).cloned() {
            inner.stats.hits += 1;
            touch(&mut inner.lru, id);
            return Ok(frame);
        }
        let data = self.disk.read_page(id)?;
        inner.stats.misses += 1;
        if inner.frames.len() >= inner.capacity {
            let victim = inner.lru.remove(0);
            inner.frames.remove(&victim);
        }
        inner.frames.insert(id, data.clone());
        inner.lru.push(id);
        Ok(data)
    }

    /// Drops every resident frame (e.g. between experiment legs) without
    /// touching statistics.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("pool lock");
        inner.frames.clear();
        inner.lru.clear();
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().expect("pool lock").stats
    }

    /// Scans every record of a heap file in storage order through the pool.
    pub fn scan<'a>(&'a self, file: &'a HeapFile) -> RecordScan<'a> {
        RecordScan { pool: self, file, page_index: 0, frame: None, slots: 0, slot: 0 }
    }
}

fn touch(lru: &mut Vec<PageId>, id: PageId) {
    if let Some(pos) = lru.iter().position(|&p| p == id) {
        lru.remove(pos);
    }
    lru.push(id);
}

/// A lending cursor over all records of a heap file, in `(page, slot)`
/// order. It holds the current page's frame, validates each page header once
/// when it reaches the page, and lends every record as a slice of the frame.
pub struct RecordScan<'a> {
    pool: &'a BufferPool,
    file: &'a HeapFile,
    /// Index of the next page to fetch.
    page_index: u32,
    /// The current page's image, its header already validated.
    frame: Option<Arc<[u8]>>,
    slots: u16,
    slot: u16,
}

impl RecordScan<'_> {
    /// The next record, borrowed from the pinned page image until the next
    /// call; `None` after the last record. A page that fails to read or whose
    /// header or slot is corrupt yields its error.
    pub fn next_record(&mut self) -> Option<Result<&[u8]>> {
        while self.slot >= self.slots {
            if u64::from(self.page_index) >= self.file.num_pages() {
                return None;
            }
            if let Err(e) = self.fetch_page() {
                return Some(Err(e));
            }
        }
        let slot = self.slot;
        self.slot += 1;
        let frame = self.frame.as_deref().expect("just filled");
        Some(PageView::validated(frame).get(slot))
    }

    /// Pins the next page of the file and validates its header.
    fn fetch_page(&mut self) -> Result<()> {
        let pid = self.file.page_id(self.page_index)?;
        self.page_index += 1;
        let frame = self.pool.get(pid)?;
        self.slots = PageView::new(&frame)?.slot_count();
        self.slot = 0;
        self.frame = Some(frame);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;

    fn disk_with_pages(n: usize) -> (SimDisk, Vec<PageId>) {
        let disk = SimDisk::new(128);
        let ids: Vec<PageId> = (0..n)
            .map(|i| {
                let id = disk.alloc_page();
                let mut page = Page::new(128);
                page.insert(&[i as u8]).unwrap();
                disk.write_page(id, page.as_bytes()).unwrap();
                id
            })
            .collect();
        disk.reset_io();
        (disk, ids)
    }

    #[test]
    fn hits_and_misses() {
        let (disk, ids) = disk_with_pages(3);
        let pool = BufferPool::new(&disk, 2);
        pool.get(ids[0]).unwrap();
        pool.get(ids[0]).unwrap();
        pool.get(ids[1]).unwrap();
        assert_eq!(pool.stats(), PoolStats { requests: 3, hits: 1, misses: 2 });
        assert_eq!(disk.io().reads, 2);
    }

    #[test]
    fn lru_eviction_causes_rereads() {
        let (disk, ids) = disk_with_pages(3);
        let pool = BufferPool::new(&disk, 2);
        pool.get(ids[0]).unwrap();
        pool.get(ids[1]).unwrap();
        pool.get(ids[2]).unwrap(); // evicts ids[0]
        pool.get(ids[1]).unwrap(); // hit
        pool.get(ids[0]).unwrap(); // miss again
        assert_eq!(pool.stats(), PoolStats { requests: 5, hits: 1, misses: 4 });
        assert_eq!(disk.io().reads, 4);
    }

    #[test]
    fn lru_order_respects_recency() {
        let (disk, ids) = disk_with_pages(3);
        let pool = BufferPool::new(&disk, 2);
        pool.get(ids[0]).unwrap();
        pool.get(ids[1]).unwrap();
        pool.get(ids[0]).unwrap(); // refresh 0; victim should be 1
        pool.get(ids[2]).unwrap(); // evicts 1
        pool.get(ids[0]).unwrap(); // still resident
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn frames_survive_for_holders_after_eviction() {
        let (disk, ids) = disk_with_pages(2);
        let pool = BufferPool::new(&disk, 1);
        let held = pool.get(ids[0]).unwrap();
        pool.get(ids[1]).unwrap(); // evicts frame 0 from the pool
                                   // The held image is still valid.
        assert_eq!(PageView::new(&held).unwrap().get(0).unwrap(), &[0u8]);
    }

    #[test]
    fn clear_empties_frames() {
        let (disk, ids) = disk_with_pages(1);
        let pool = BufferPool::new(&disk, 2);
        pool.get(ids[0]).unwrap();
        pool.clear();
        pool.get(ids[0]).unwrap();
        assert_eq!(pool.stats().misses, 2);
        let _ = disk;
    }
}
