//! Byte-level encoding helpers used by the tuple codec in `fuzzy-rel`.
//!
//! Little-endian fixed-width integers and floats, plus length-prefixed byte
//! strings. Kept deliberately simple: record layout is part of the substrate
//! the paper's I/O measurements depend on, so the encoding must be
//! predictable (a crisp number costs 8 payload bytes; an ill-known value
//! costs 32 — the 4 trapezoid breakpoints — which is the storage-size
//! asymmetry the paper calls out in its introduction).

use crate::error::{Result, StorageError};

/// Serializes primitive values into a growing byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter { buf: Vec::with_capacity(cap) }
    }

    /// Appends a byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian f64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a u32-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with no prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserializes primitive values from a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over the slice.
    #[inline]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(self.underflow(n));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array (the fixed-width readers' one path).
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        match self.buf.get(self.pos..).and_then(<[u8]>::first_chunk::<N>) {
            Some(s) => {
                self.pos += N;
                Ok(*s)
            }
            None => Err(self.underflow(N)),
        }
    }

    #[cold]
    fn underflow(&self, n: usize) -> StorageError {
        StorageError::Corrupt(format!(
            "record underflow: need {n} bytes at offset {}, have {}",
            self.pos,
            self.buf.len() - self.pos
        ))
    }

    /// Reads a byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian f64.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Reads a u32-length-prefixed byte string.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-2.5);
        w.put_bytes(b"hello");
        w.put_raw(&[9, 9]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), -2.5);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.get_u8().unwrap(), 9);
    }

    #[test]
    fn underflow_is_an_error() {
        let bytes = [1u8, 2];
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_u32().is_err());
        // Failed reads do not consume.
        assert_eq!(r.get_u16().unwrap(), 0x0201);
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn bad_length_prefix() {
        let mut w = ByteWriter::new();
        w.put_u32(1000); // claims 1000 bytes follow
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn writer_state() {
        let mut w = ByteWriter::with_capacity(16);
        assert!(w.is_empty());
        w.put_u8(1);
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }
}
