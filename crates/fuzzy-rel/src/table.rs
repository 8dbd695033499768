//! Stored tables: fuzzy relations persisted in heap files.
//!
//! A stored table binds a schema to a heap file of encoded tuples on a
//! simulated disk. Scans read each page of the file from the disk once, so
//! every page access is charged; this is the substrate the two join
//! algorithms of the paper compete on.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use fuzzy_storage::{HeapFile, Result, SimDisk};

/// A fuzzy relation stored in a heap file.
#[derive(Debug, Clone)]
pub struct StoredTable {
    name: String,
    schema: Schema,
    file: HeapFile,
    /// Minimum record size in bytes (0 = natural size). Kept so derived
    /// files (sorted copies) use the same record footprint.
    min_record_bytes: usize,
}

impl StoredTable {
    /// Creates an empty table on `disk`.
    pub fn create(disk: &SimDisk, name: impl Into<String>, schema: Schema) -> StoredTable {
        StoredTable { name: name.into(), schema, file: HeapFile::create(disk), min_record_bytes: 0 }
    }

    /// Creates a table whose records are padded to at least `min_record_bytes`
    /// (the experiments control tuple size this way).
    pub fn create_padded(
        disk: &SimDisk,
        name: impl Into<String>,
        schema: Schema,
        min_record_bytes: usize,
    ) -> StoredTable {
        StoredTable { name: name.into(), schema, file: HeapFile::create(disk), min_record_bytes }
    }

    /// Reassembles a table from persisted parts (manifest decoding).
    pub fn from_parts(
        name: impl Into<String>,
        schema: Schema,
        file: HeapFile,
        min_record_bytes: usize,
    ) -> StoredTable {
        StoredTable { name: name.into(), schema, file, min_record_bytes }
    }

    /// Bulk-loads tuples, dropping non-members (degree 0).
    pub fn load<I: IntoIterator<Item = Tuple>>(&self, tuples: I) -> Result<()> {
        let mut w = self.file.bulk_writer();
        for t in tuples {
            if t.degree.is_positive() {
                w.append(&t.encode(self.min_record_bytes))?;
            }
        }
        w.finish()
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The backing heap file.
    pub fn file(&self) -> &HeapFile {
        &self.file
    }

    /// The record padding floor.
    pub fn min_record_bytes(&self) -> usize {
        self.min_record_bytes
    }

    /// Number of stored tuples.
    pub fn num_tuples(&self) -> u64 {
        self.file.num_records()
    }

    /// Number of pages.
    pub fn num_pages(&self) -> u64 {
        self.file.num_pages()
    }

    /// A table with the same schema over a different (e.g. sorted) file.
    pub fn with_file(&self, name: impl Into<String>, file: HeapFile) -> StoredTable {
        StoredTable {
            name: name.into(),
            schema: self.schema.clone(),
            file,
            min_record_bytes: self.min_record_bytes,
        }
    }

    /// Swaps in a new heap file, returning the old one (see
    /// [`crate::Catalog::replace_file`]).
    pub(crate) fn replace_file(&mut self, file: HeapFile) -> HeapFile {
        std::mem::replace(&mut self.file, file)
    }

    /// Streams all tuples, decoding each straight from its page image.
    pub fn scan(&self) -> impl Iterator<Item = Result<Tuple>> + '_ {
        let mut records = self.file.scan();
        std::iter::from_fn(move || records.next_record().map(|r| r.and_then(Tuple::decode)))
    }

    /// Reads the whole table into an in-memory relation (test/debug helper;
    /// query operators stream instead).
    pub fn to_relation(&self) -> Result<Relation> {
        let mut rel = Relation::empty(self.schema.clone());
        for t in self.scan() {
            rel.insert(t?);
        }
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;
    use fuzzy_core::{Degree, Value};

    fn schema() -> Schema {
        Schema::of(&[("ID", AttrType::Number), ("NAME", AttrType::Text)])
    }

    fn tup(id: f64, name: &str, d: f64) -> Tuple {
        Tuple::new(vec![Value::number(id), Value::text(name)], Degree::new(d).unwrap())
    }

    #[test]
    fn load_scan_roundtrip() {
        let disk = SimDisk::with_default_page_size();
        let t = StoredTable::create(&disk, "people", schema());
        t.load([tup(1.0, "Ann", 1.0), tup(2.0, "Bob", 0.5)]).unwrap();
        assert_eq!(t.num_tuples(), 2);
        let rel = t.to_relation().unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.tuples()[1].values[1], Value::text("Bob"));
    }

    #[test]
    fn zero_degree_tuples_not_stored() {
        let disk = SimDisk::with_default_page_size();
        let t = StoredTable::create(&disk, "x", schema());
        t.load([tup(1.0, "gone", 0.0), tup(2.0, "kept", 0.1)]).unwrap();
        assert_eq!(t.num_tuples(), 1);
    }

    #[test]
    fn padding_inflates_pages() {
        let disk = SimDisk::with_default_page_size();
        let small = StoredTable::create(&disk, "s", schema());
        small.load((0..500).map(|i| tup(i as f64, "x", 1.0))).unwrap();
        let big = StoredTable::create_padded(&disk, "b", schema(), 1024);
        big.load((0..500).map(|i| tup(i as f64, "x", 1.0))).unwrap();
        assert!(big.num_pages() > small.num_pages() * 5);
        assert_eq!(big.min_record_bytes(), 1024);
    }

    #[test]
    fn with_file_shares_the_file_under_a_new_name() {
        let disk = SimDisk::with_default_page_size();
        let t = StoredTable::create(&disk, "ppl", schema());
        t.load([tup(1.0, "Ann", 0.9)]).unwrap();
        let clone = t.with_file("ppl_sorted", t.file().clone());
        assert_eq!(clone.name(), "ppl_sorted");
        assert_eq!(clone.num_tuples(), 1);
        assert_eq!(clone.schema(), t.schema());
    }
}
