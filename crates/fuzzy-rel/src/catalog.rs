//! The catalog: named tables plus the linguistic vocabulary.

use crate::table::StoredTable;
use fuzzy_core::Vocabulary;
use fuzzy_storage::HeapFile;
use std::collections::HashMap;

/// The database catalog. Table names are case-insensitive.
///
/// The catalog carries a monotonically increasing **schema version**: every
/// change that can alter a plan increments it — registering a table,
/// touching the vocabulary, or [`Catalog::mark_analyzed`]. Plan caches key
/// cached plans on it. A change to the data does not: appends go to the
/// table's shared heap file, and an UPDATE/DELETE rewrite swaps the file in
/// through [`Catalog::replace_file`], so a cached plan, which names its
/// tables and binds them when it runs, stays valid across writes.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, StoredTable>,
    vocab: Vocabulary,
    schema_version: u64,
}

impl Catalog {
    /// An empty catalog with an empty vocabulary.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// A catalog using the paper's calibrated vocabulary.
    pub fn with_paper_vocabulary() -> Catalog {
        Catalog { tables: HashMap::new(), vocab: Vocabulary::paper(), schema_version: 0 }
    }

    /// The schema version: bumped on every registration, vocabulary access,
    /// and ANALYZE ([`Catalog::mark_analyzed`]), never by a data write.
    /// Cached plans built against an older schema version are stale.
    pub fn schema_version(&self) -> u64 {
        self.schema_version
    }

    /// Records an ANALYZE: the statistics a plan's join order was chosen on
    /// may have changed, so every cached plan is stale and re-plans.
    pub fn mark_analyzed(&mut self) {
        self.schema_version += 1;
    }

    /// Registers (or replaces) a table under its own name.
    pub fn register(&mut self, table: StoredTable) {
        self.tables.insert(table.name().to_lowercase(), table);
        self.schema_version += 1;
    }

    /// Swaps a table's heap file for `file`, keeping its name, schema and
    /// padding — the data-only change an UPDATE/DELETE rewrite makes, so
    /// the schema version stays. Returns the replaced file, or `None` (and
    /// drops `file`) when no such table exists.
    pub fn replace_file(&mut self, name: &str, file: HeapFile) -> Option<HeapFile> {
        let table = self.tables.get_mut(&name.to_lowercase())?;
        Some(table.replace_file(file))
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Option<&StoredTable> {
        self.tables.get(&name.to_lowercase())
    }

    /// Names of all registered tables (unsorted).
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.values().map(|t| t.name())
    }

    /// The vocabulary (shared by all queries).
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Mutable access to the vocabulary, for defining terms. Conservatively
    /// bumps the schema version (a redefined term changes what cached plans
    /// would resolve).
    pub fn vocabulary_mut(&mut self) -> &mut Vocabulary {
        self.schema_version += 1;
        &mut self.vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};
    use fuzzy_core::Trapezoid;
    use fuzzy_storage::SimDisk;

    #[test]
    fn register_and_lookup() {
        let disk = SimDisk::with_default_page_size();
        let mut c = Catalog::new();
        let t = StoredTable::create(&disk, "EMP", Schema::of(&[("ID", AttrType::Number)]));
        c.register(t);
        assert!(c.table("emp").is_some());
        assert!(c.table("Emp").is_some());
        assert!(c.table("dept").is_none());
        assert_eq!(c.table_names().collect::<Vec<_>>(), vec!["EMP"]);
    }

    #[test]
    fn schema_version_bumps_on_schema_changes_only() {
        let disk = SimDisk::with_default_page_size();
        let mut c = Catalog::new();
        assert_eq!(c.schema_version(), 0);
        c.register(StoredTable::create(&disk, "T", Schema::of(&[("X", AttrType::Number)])));
        assert_eq!(c.schema_version(), 1);
        c.vocabulary_mut().define("tall", Trapezoid::new(1.0, 2.0, 3.0, 4.0).unwrap());
        assert_eq!(c.schema_version(), 2);
        c.mark_analyzed();
        assert_eq!(c.schema_version(), 3);
        // Clones carry the version of their source snapshot.
        assert_eq!(c.clone().schema_version(), 3);
        // Reads and data-only file swaps do not bump.
        let _ = c.table("t");
        let _ = c.vocabulary();
        let fresh = fuzzy_storage::HeapFile::create(&disk);
        assert!(c.replace_file("t", fresh).is_some());
        assert!(c.replace_file("missing", fuzzy_storage::HeapFile::create(&disk)).is_none());
        assert_eq!(c.schema_version(), 3);
    }

    #[test]
    fn vocabulary_access() {
        let mut c = Catalog::with_paper_vocabulary();
        assert!(c.vocabulary().get("medium young").is_some());
        c.vocabulary_mut().define("tall", Trapezoid::new(170.0, 180.0, 200.0, 210.0).unwrap());
        assert!(c.vocabulary().get("TALL").is_some());
    }
}
