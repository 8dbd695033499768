//! Slotted pages: the on-disk record layout.
//!
//! Layout of a page of `P` bytes:
//!
//! ```text
//! +-----------+-----------+---------------------->   <-----------------+
//! | slots u16 | free  u16 | record 0 | record 1 | ... | slot 1 | slot 0 |
//! +-----------+-----------+---------------------->   <-----------------+
//! ```
//!
//! The 4-byte header holds the slot count and the offset of free space.
//! Records grow from the left; the slot directory (4 bytes per slot: record
//! offset and length, both `u16`) grows from the right. Records are
//! variable-length, which the fuzzy data model needs — an ill-known value
//! takes four floats where a crisp one takes one (the paper's observation
//! that ill-known data costs more I/O than crisp data).

use crate::error::{Result, StorageError};

const HEADER: usize = 4;
const SLOT: usize = 4;

/// An in-memory slotted page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    data: Vec<u8>,
}

impl Page {
    /// Creates an empty page of `page_size` bytes.
    pub fn new(page_size: usize) -> Page {
        assert!(
            page_size >= 64 && page_size <= u16::MAX as usize + 1,
            "page size must be in [64, 65536]"
        );
        let mut data = vec![0u8; page_size];
        write_u16(&mut data, 2, HEADER as u16); // free pointer starts after header
        Page { data }
    }

    /// Copies raw page bytes read from disk into an owned, writable page,
    /// validating the header.
    pub fn from_bytes(data: &[u8]) -> Result<Page> {
        PageView::new(data)?;
        Ok(Page { data: data.to_vec() })
    }

    /// The raw bytes of the page (e.g. for writing back to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// A borrowed view of the page, for reading its records.
    pub fn view(&self) -> PageView<'_> {
        PageView { data: &self.data }
    }

    /// Number of records stored in this page.
    pub fn slot_count(&self) -> u16 {
        self.view().slot_count()
    }

    fn free_ptr(&self) -> usize {
        read_u16(&self.data, 2) as usize
    }

    /// Free bytes available for one more record (accounting for its slot).
    pub fn free_space(&self) -> usize {
        let used_right = self.slot_count() as usize * SLOT;
        let avail = self.data.len() - used_right - self.free_ptr();
        avail.saturating_sub(SLOT)
    }

    /// Maximum record payload an empty page of this size can hold.
    pub fn capacity(page_size: usize) -> usize {
        page_size - HEADER - SLOT
    }

    /// Appends a record, returning its slot index, or an error if it does not
    /// fit (callers then move on to a fresh page, or fail for records larger
    /// than a whole page).
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        if record.len() > u16::MAX as usize || record.len() > self.free_space() {
            return Err(StorageError::RecordTooLarge {
                need: record.len() + SLOT,
                page_capacity: self.free_space() + SLOT,
            });
        }
        let slot = self.slot_count();
        let off = self.free_ptr();
        self.data[off..off + record.len()].copy_from_slice(record);
        let slot_pos = self.data.len() - (slot as usize + 1) * SLOT;
        write_u16(&mut self.data, slot_pos, off as u16);
        write_u16(&mut self.data, slot_pos + 2, record.len() as u16);
        write_u16(&mut self.data, 0, slot + 1);
        write_u16(&mut self.data, 2, (off + record.len()) as u16);
        Ok(slot)
    }

    /// Empties the page in place, leaving exactly the bytes of
    /// [`Page::new`]: only the record area and the slot directory in use are
    /// zeroed, so a bulk writer reuses one buffer for every page it fills.
    pub fn clear(&mut self) {
        let used_right = self.data.len() - self.slot_count() as usize * SLOT;
        let free = self.free_ptr();
        self.data[..free].fill(0);
        self.data[used_right..].fill(0);
        write_u16(&mut self.data, 2, HEADER as u16);
    }

    /// The record stored in `slot`.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        self.view().get(slot)
    }
}

/// A borrowed slotted page: the one place page headers are validated and
/// slots decoded. It reads records where they sit — in a [`Page`] or in an
/// image fresh from the disk that a scan holds — without copying.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    data: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Wraps raw page bytes, validating the header: the slot directory and
    /// the free pointer must lie inside the page.
    pub fn new(data: &'a [u8]) -> Result<PageView<'a>> {
        if data.len() < 64 {
            return Err(StorageError::Corrupt("page shorter than 64 bytes".into()));
        }
        let view = PageView { data };
        let slots = view.slot_count() as usize;
        let free = read_u16(data, 2) as usize;
        if HEADER + slots * SLOT > data.len()
            || free < HEADER
            || free > data.len().saturating_sub(slots * SLOT)
        {
            return Err(StorageError::Corrupt("inconsistent page header".into()));
        }
        Ok(view)
    }

    /// Re-wraps bytes whose header an earlier [`PageView::new`] accepted
    /// (a scan holding its current page image), skipping the header check.
    pub(crate) fn validated(data: &'a [u8]) -> PageView<'a> {
        PageView { data }
    }

    /// Number of records stored in the page.
    pub fn slot_count(&self) -> u16 {
        read_u16(self.data, 0)
    }

    /// The record stored in `slot`, borrowed from the page bytes. A slot
    /// entry that points outside the page is [`StorageError::Corrupt`].
    pub fn get(&self, slot: u16) -> Result<&'a [u8]> {
        if slot >= self.slot_count() {
            return Err(StorageError::InvalidSlot(slot));
        }
        let slot_pos = self.data.len() - (slot as usize + 1) * SLOT;
        let off = read_u16(self.data, slot_pos) as usize;
        let len = read_u16(self.data, slot_pos + 2) as usize;
        if off + len > self.data.len() {
            return Err(StorageError::Corrupt(format!("slot {slot} points outside page")));
        }
        Ok(&self.data[off..off + len])
    }

    /// Every record in slot order; a corrupt slot yields its error.
    pub fn records(self) -> impl Iterator<Item = Result<&'a [u8]>> {
        (0..self.slot_count()).map(move |s| self.get(s))
    }
}

fn read_u16(data: &[u8], pos: usize) -> u16 {
    u16::from_le_bytes([data[pos], data[pos + 1]])
}

fn write_u16(data: &mut [u8], pos: usize, v: u16) {
    data[pos..pos + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new(128);
        assert_eq!(p.slot_count(), 0);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(p.get(0).unwrap(), b"hello");
        assert_eq!(p.get(1).unwrap(), b"world!");
        assert_eq!(p.get(2), Err(StorageError::InvalidSlot(2)));
        let records: Vec<&[u8]> = p.view().records().map(|r| r.unwrap()).collect();
        assert_eq!(records, vec![&b"hello"[..], &b"world!"[..]]);
    }

    #[test]
    fn empty_records_allowed() {
        let mut p = Page::new(64);
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s).unwrap(), b"");
    }

    #[test]
    fn fills_until_capacity() {
        let mut p = Page::new(64);
        // 64 - 4 header = 60 bytes; each 6-byte record takes 6 + 4 slot = 10.
        let mut n = 0;
        while p.insert(b"abcdef").is_ok() {
            n += 1;
        }
        assert_eq!(n, 6);
        assert!(p.free_space() < 10);
        // The page is still fully readable.
        assert!(p.view().records().all(|r| r.unwrap() == b"abcdef"));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = Page::new(64);
        let err = p.insert(&[0u8; 100]).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
        assert_eq!(Page::capacity(8192), 8192 - 8);
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = Page::new(128);
        p.insert(b"one").unwrap();
        p.insert(b"two").unwrap();
        let q = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(q, p);
        assert_eq!(q.get(1).unwrap(), b"two");
    }

    #[test]
    fn clear_restores_a_fresh_page() {
        let mut p = Page::new(128);
        p.insert(b"one").unwrap();
        p.insert(b"three").unwrap();
        p.clear();
        assert_eq!(p, Page::new(128));
        p.insert(b"again").unwrap();
        assert_eq!(p.get(0).unwrap(), b"again");
    }

    #[test]
    fn slot_pointing_outside_the_page_is_corrupt() {
        let mut p = Page::new(128);
        p.insert(b"one").unwrap();
        p.insert(b"two").unwrap();
        let mut bytes = p.as_bytes().to_vec();
        // Slot 1's entry sits 8 bytes from the end: point it past the page.
        bytes[120..122].copy_from_slice(&200u16.to_le_bytes());
        let view = PageView::new(&bytes).unwrap();
        assert_eq!(view.get(0).unwrap(), b"one");
        let got: Vec<Result<&[u8]>> = view.records().collect();
        assert!(matches!(&got[1], Err(StorageError::Corrupt(m)) if m.contains("slot 1")));
    }

    #[test]
    fn corrupt_pages_rejected() {
        let mut bytes = vec![0u8; 128];
        bytes[0] = 0xFF; // 255 slots cannot fit in 128 bytes
        bytes[1] = 0x00;
        assert!(matches!(Page::from_bytes(&bytes), Err(StorageError::Corrupt(_))));
        assert!(matches!(PageView::new(&[0u8; 8]), Err(StorageError::Corrupt(_))));
    }
}
