//! The catalog manifest: durable metadata for a persisted database.
//!
//! Table data lives in the page file of a file-backed [`SimDisk`]; the
//! manifest records everything needed to rebuild the catalog from those
//! pages: table names, schemas (attribute names, types, key), record-padding
//! floors, per-table page-id lists, and the linguistic vocabulary. The format
//! is a compact hand-rolled binary (no serde — DESIGN.md documents the
//! dependency policy), versioned with a magic header.

use crate::catalog::Catalog;
use crate::schema::{AttrType, Attribute, Schema};
use crate::table::StoredTable;
use fuzzy_core::Trapezoid;
use fuzzy_storage::codec::{ByteReader, ByteWriter};
use fuzzy_storage::{HeapFile, Result, SimDisk, StorageError};

const MAGIC: &[u8; 8] = b"FUZZYDB1";

/// Serializes a catalog (tables on `disk` plus vocabulary) to manifest bytes.
pub fn encode(catalog: &Catalog) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(MAGIC);
    // Vocabulary.
    let terms: Vec<(&str, &Trapezoid)> = catalog.vocabulary().iter().collect();
    w.put_u32(terms.len() as u32);
    for (name, shape) in terms {
        w.put_bytes(name.as_bytes());
        let (a, b, c, d) = shape.breakpoints();
        for v in [a, b, c, d] {
            w.put_f64(v);
        }
    }
    // Tables.
    let mut names: Vec<&str> = catalog.table_names().collect();
    names.sort_unstable();
    w.put_u32(names.len() as u32);
    for name in names {
        let t = catalog.table(name).expect("listed table");
        w.put_bytes(t.name().as_bytes());
        encode_schema(&mut w, t.schema());
        w.put_u32(t.min_record_bytes() as u32);
        w.put_u64(t.num_tuples());
        let pages = t.file().page_ids();
        w.put_u32(pages.len() as u32);
        for p in pages {
            w.put_u64(p);
        }
    }
    w.into_bytes()
}

fn encode_schema(w: &mut ByteWriter, schema: &Schema) {
    w.put_u16(schema.len() as u16);
    for a in schema.attributes() {
        w.put_bytes(a.name.as_bytes());
        w.put_u8(match a.ty {
            AttrType::Text => 0,
            AttrType::Number => 1,
        });
    }
    match schema.key() {
        Some(k) => {
            w.put_u8(1);
            w.put_u16(k as u16);
        }
        None => w.put_u8(0),
    }
}

/// Rebuilds a catalog from manifest bytes; tables reference pages of `disk`.
pub fn decode(bytes: &[u8], disk: &SimDisk) -> Result<Catalog> {
    let mut r = ByteReader::new(bytes);
    let mut magic = [0u8; 8];
    for m in magic.iter_mut() {
        *m = r.get_u8()?;
    }
    if &magic != MAGIC {
        return Err(StorageError::Corrupt("bad manifest magic".into()));
    }
    let mut catalog = Catalog::new();
    let n_terms = r.get_u32()?;
    for _ in 0..n_terms {
        let name = read_string(&mut r)?;
        let a = r.get_f64()?;
        let b = r.get_f64()?;
        let c = r.get_f64()?;
        let d = r.get_f64()?;
        let shape = Trapezoid::new(a, b, c, d)
            .map_err(|e| StorageError::Corrupt(format!("bad vocabulary term: {e}")))?;
        catalog.vocabulary_mut().define(&name, shape);
    }
    let n_tables = r.get_u32()?;
    for _ in 0..n_tables {
        let name = read_string(&mut r)?;
        let schema = decode_schema(&mut r)?;
        let min_record_bytes = r.get_u32()? as usize;
        let record_count = r.get_u64()?;
        let n_pages = r.get_u32()?;
        let mut pages = Vec::with_capacity(n_pages as usize);
        for _ in 0..n_pages {
            let p = r.get_u64()?;
            if p >= disk.num_pages() {
                return Err(StorageError::Corrupt(format!(
                    "manifest references page {p} beyond the disk"
                )));
            }
            pages.push(p);
        }
        let file = HeapFile::from_parts(disk, pages, record_count);
        catalog.register(StoredTable::from_parts(name, schema, file, min_record_bytes));
    }
    Ok(catalog)
}

fn decode_schema(r: &mut ByteReader<'_>) -> Result<Schema> {
    let n = r.get_u16()? as usize;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = read_string(r)?;
        let ty = match r.get_u8()? {
            0 => AttrType::Text,
            1 => AttrType::Number,
            other => return Err(StorageError::Corrupt(format!("bad attr type tag {other}"))),
        };
        attrs.push(Attribute::new(name, ty));
    }
    let mut schema = Schema::new(attrs);
    if r.get_u8()? == 1 {
        let k = r.get_u16()? as usize;
        if k >= schema.len() {
            return Err(StorageError::Corrupt(format!("key index {k} out of range")));
        }
        let key_name = schema.attr(k).name.clone();
        schema = schema.with_key(&key_name);
    }
    Ok(schema)
}

fn read_string(r: &mut ByteReader<'_>) -> Result<String> {
    let raw = r.get_bytes()?;
    String::from_utf8(raw.to_vec())
        .map_err(|e| StorageError::Corrupt(format!("bad utf-8 in manifest: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use fuzzy_core::{Degree, Value};

    #[test]
    fn roundtrip_catalog() {
        let disk = SimDisk::with_default_page_size();
        let mut catalog = Catalog::new();
        catalog.vocabulary_mut().define("warm", Trapezoid::triangular(15.0, 22.0, 30.0).unwrap());
        let t = StoredTable::create_padded(
            &disk,
            "PEOPLE",
            Schema::of(&[("ID", AttrType::Number), ("NAME", AttrType::Text)]).with_key("ID"),
            64,
        );
        t.load((0..10).map(|i| {
            Tuple::new(
                vec![Value::number(i as f64), Value::text(format!("p{i}"))],
                Degree::new(0.5 + 0.05 * i as f64).unwrap(),
            )
        }))
        .unwrap();
        catalog.register(t);

        let bytes = encode(&catalog);
        let back = decode(&bytes, &disk).unwrap();
        assert!(back.vocabulary().get("warm").is_some());
        let t2 = back.table("people").unwrap();
        assert_eq!(t2.num_tuples(), 10);
        assert_eq!(t2.min_record_bytes(), 64);
        assert_eq!(t2.schema().key(), Some(0));
        let rel = t2.to_relation().unwrap();
        assert_eq!(rel.tuples()[3].values[1], Value::text("p3"));
        assert!((rel.tuples()[3].degree.value() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn corrupt_manifests_rejected() {
        let disk = SimDisk::with_default_page_size();
        assert!(decode(b"NOTMAGIC", &disk).is_err());
        assert!(decode(b"FU", &disk).is_err());
        // A manifest referencing pages beyond the disk.
        let mut catalog = Catalog::new();
        let other = SimDisk::with_default_page_size();
        let t = StoredTable::create(&other, "X", Schema::of(&[("A", AttrType::Number)]));
        t.load([Tuple::full(vec![Value::number(1.0)])]).unwrap();
        catalog.register(t);
        let bytes = encode(&catalog);
        assert!(decode(&bytes, &disk).is_err(), "page ids must exist on the target disk");
    }
}
