//! # fuzzy-db
//!
//! A fuzzy relational database with efficient processing of nested Fuzzy SQL
//! queries — a from-scratch Rust reproduction of
//!
//! > Q. Yang, W. Zhang, C. Liu, J. Wu, C. Yu, H. Nakajima, N. D. Rishe.
//! > *Efficient Processing of Nested Fuzzy SQL Queries in a Fuzzy Database.*
//! > IEEE TKDE 13(6), 2001 (earlier version at IEEE ICDE 1995).
//!
//! Relations are fuzzy sets of fuzzy tuples: every tuple carries a
//! membership degree, and ill-known attribute values are trapezoidal
//! possibility distributions. Nested queries (`IN`, `NOT IN`, `θ ALL/SOME`,
//! aggregate sub-queries, K-level chains) are **unnested** into flat plans
//! evaluated with an **extended merge-join** over the interval order of
//! Definition 3.1 — orders of magnitude faster than the nested-loop method a
//! nested query would otherwise require.
//!
//! ## Quickstart
//!
//! ```
//! use fuzzy_db::Database;
//! use fuzzy_db::rel::{AttrType, Schema, Tuple};
//! use fuzzy_db::core::{Trapezoid, Value};
//!
//! let db = Database::new();
//! // Linguistic vocabulary: terms usable in queries.
//! db.define_term("medium young", Trapezoid::new(20.0, 25.0, 30.0, 35.0)?);
//! db.define_term("middle age", Trapezoid::new(28.0, 33.0, 41.0, 51.0)?);
//!
//! db.create_table(
//!     "F",
//!     Schema::of(&[("NAME", AttrType::Text), ("AGE", AttrType::Number)]),
//! )?;
//! // Ill-known data: Ann's age is only vaguely known.
//! db.insert("F", Tuple::full(vec![
//!     Value::text("Ann"),
//!     Value::fuzzy(Trapezoid::triangular(30.0, 35.0, 40.0)?),
//! ]))?;
//!
//! let answer = db.query("SELECT F.NAME FROM F WHERE F.AGE = 'medium young'").collect()?;
//! assert_eq!(answer.len(), 1);
//! assert!((answer.tuples()[0].degree.value() - 0.5).abs() < 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Concurrent serving
//!
//! A [`Database`] is a handle over shared state (disk, catalog, statistics,
//! verified-plan cache, serving counters) that dereferences to its root
//! [`Session`]; `db.session()` ([`Session::session`]) hands out
//! cheap [`Session`] clones that are `Send + Sync`: read statements run
//! concurrently under a shared catalog lock while DDL/DML briefly takes it
//! exclusively, bumps the catalog version, and thereby invalidates cached
//! plans (see `DESIGN.md` §12 and `tests/concurrent_serving.rs`).
//!
//! ```
//! use fuzzy_db::Database;
//! use fuzzy_db::rel::{AttrType, Schema, Tuple};
//! use fuzzy_db::core::Value;
//!
//! let db = Database::new();
//! db.create_table("R", Schema::of(&[("X", AttrType::Number)]))?;
//! db.insert("R", Tuple::full(vec![Value::number(1.0)]))?;
//! let session = db.session();
//! let handle = std::thread::spawn(move || {
//!     session.query("SELECT R.X FROM R").collect().map(|ans| ans.len())
//! });
//! assert_eq!(handle.join().unwrap()?, 1);
//! // The same statement again: answered from the verified-plan cache.
//! assert_eq!(db.query("SELECT R.X FROM R").collect()?.len(), 1);
//! assert!(db.plan_cache_stats().hits >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! * [`core`] (re-export of `fuzzy-core`) — degrees, trapezoids, possibility
//!   comparisons, fuzzy arithmetic, vocabularies;
//! * [`storage`] — simulated disk, slotted pages, buffer pool, external sort,
//!   cost model;
//! * [`rel`] — schemas, tuples, fuzzy relations, stored tables, catalog;
//! * [`sql`] — Fuzzy SQL parser and query-type classifier;
//! * [`engine`] — the unnesting transformations, the extended merge-join, the
//!   nested-loop baseline, and the naive reference evaluator;
//! * [`workload`] — the paper's example datasets and the Section 9 synthetic
//!   workload generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fuzzy_core as core;
pub use fuzzy_engine as engine;
pub use fuzzy_rel as rel;
pub use fuzzy_sql as sql;
pub use fuzzy_storage as storage;
pub use fuzzy_workload as workload;

mod serving;

pub use fuzzy_engine::plan_cache::CacheStats;
pub use fuzzy_engine::{EngineError, QueryOutcome, ServingCounters, Strategy};
pub use serving::{CatalogWrite, PreparedQuery, QueryBuilder, Session};

use fuzzy_core::Degree;
use fuzzy_engine::exec::ExecConfig;
use fuzzy_rel::{Catalog, Relation};
use fuzzy_storage::SimDisk;
use serving::Shared;
use std::sync::Arc;

/// A self-contained fuzzy database: a simulated disk, a catalog, a
/// vocabulary, the query engine, and the serving state (plan cache +
/// counters) its sessions share.
///
/// `Database` owns the **root session** and dereferences to it, so every
/// [`Session`] method — queries, DDL/DML, configuration, counters — is
/// called on the database directly; [`Session::session`] clones further
/// handles for other threads. `Database` itself adds only construction and
/// persistence.
pub struct Database {
    session: Session,
}

impl std::ops::Deref for Database {
    type Target = Session;
    fn deref(&self) -> &Session {
        &self.session
    }
}

impl std::ops::DerefMut for Database {
    fn deref_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    fn from_shared(shared: Shared) -> Database {
        Database { session: Session { shared: Arc::new(shared), config: ExecConfig::default() } }
    }

    /// An empty database with an empty vocabulary.
    pub fn new() -> Database {
        Database::from_shared(Shared::new(Catalog::new(), SimDisk::with_default_page_size()))
    }

    /// A database preloaded with the paper's calibrated vocabulary
    /// ("medium young", "about 35", "middle age", "high", …).
    pub fn with_paper_vocabulary() -> Database {
        Database::from_shared(Shared::new(
            Catalog::with_paper_vocabulary(),
            SimDisk::with_default_page_size(),
        ))
    }

    /// Wraps an existing catalog + disk (e.g. from `fuzzy_workload`).
    pub fn from_catalog(catalog: Catalog, disk: SimDisk) -> Database {
        Database::from_shared(Shared::new(catalog, disk))
    }

    /// Opens (or creates) a persistent database rooted at `path`: table pages
    /// live in `<path>.pages` and the catalog manifest in `<path>.manifest`.
    /// Call [`Database::save`] to persist catalog changes (new tables,
    /// vocabulary, appended page lists); tuple data writes go straight to the
    /// page file.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Database, EngineError> {
        let base = path.as_ref();
        let pages = base.with_extension("pages");
        let manifest = base.with_extension("manifest");
        let disk = SimDisk::open_file(&pages, fuzzy_storage::DEFAULT_PAGE_SIZE)?;
        let catalog = match std::fs::read(&manifest) {
            Ok(bytes) => fuzzy_rel::manifest::decode(&bytes, &disk)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Catalog::new(),
            Err(e) => {
                return Err(EngineError::Storage(fuzzy_storage::StorageError::Corrupt(format!(
                    "cannot read manifest: {e}"
                ))))
            }
        };
        let mut shared = Shared::new(catalog, disk);
        shared.persist_path = Some(manifest);
        Ok(Database::from_shared(shared))
    }

    /// Writes the catalog manifest of a database opened with
    /// [`Database::open`]. Errors for purely in-memory databases.
    pub fn save(&self) -> Result<(), EngineError> {
        let path = self.session.shared.persist_path.as_ref().ok_or_else(|| {
            EngineError::Unsupported(
                "this database is in-memory; open it with Database::open to persist".into(),
            )
        })?;
        let bytes = fuzzy_rel::manifest::encode(&self.catalog());
        std::fs::write(path, bytes).map_err(|e| {
            EngineError::Storage(fuzzy_storage::StorageError::Corrupt(format!(
                "cannot write manifest: {e}"
            )))
        })
    }

    /// Reads a full table into memory (debugging/tests).
    pub fn table_contents(&self, table: &str) -> Result<Relation, EngineError> {
        let catalog = self.catalog();
        let t = catalog
            .table(table)
            .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?;
        let pool = fuzzy_storage::BufferPool::new(self.disk(), self.exec_config().buffer_pages);
        Ok(t.to_relation(&pool)?)
    }

    /// A convenience threshold helper: keeps only rows with degree > `z`.
    pub fn threshold(rel: &Relation, z: f64) -> Relation {
        rel.with_threshold(Degree::clamped(z), true)
    }
}

/// The result of [`Session::execute`].
#[derive(Debug, Clone)]
pub enum StatementResult {
    /// A SELECT answer.
    Rows(Relation),
    /// Tuples inserted, deleted, or updated.
    Affected(usize),
    /// The rendered text of an `EXPLAIN`, `EXPLAIN ANALYZE`, or
    /// `EXPLAIN VERIFY` statement.
    Explained(String),
    /// A DDL statement (CREATE TABLE, DEFINE TERM) succeeded.
    Done,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::Value;
    use fuzzy_rel::{AttrType, Schema, Tuple};

    fn tiny_db() -> Database {
        let db = Database::with_paper_vocabulary();
        db.create_table(
            "PEOPLE",
            Schema::of(&[("NAME", AttrType::Text), ("AGE", AttrType::Number)]),
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_query_roundtrip() {
        let db = tiny_db();
        db.insert("PEOPLE", Tuple::full(vec![Value::text("Ann"), Value::number(24.0)])).unwrap();
        db.insert("PEOPLE", Tuple::full(vec![Value::text("Zed"), Value::number(70.0)])).unwrap();
        let ans = db
            .query("SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = 'medium young'")
            .collect()
            .unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.tuples()[0].values[0], Value::text("Ann"));
        assert!((ans.tuples()[0].degree.value() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = tiny_db();
        let err = db.create_table("people", Schema::of(&[("X", AttrType::Number)])).unwrap_err();
        assert!(err.to_string().contains("already exists"));
    }

    #[test]
    fn zero_degree_inserts_skipped() {
        let db = tiny_db();
        db.insert(
            "PEOPLE",
            Tuple::new(vec![Value::text("ghost"), Value::number(1.0)], Degree::ZERO),
        )
        .unwrap();
        assert_eq!(db.table_contents("PEOPLE").unwrap().len(), 0);
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::new();
        assert!(db.query("SELECT X.A FROM X").collect().is_err());
        let db = Database::new();
        assert!(db.insert("X", Tuple::full(vec![Value::number(1.0)])).is_err());
    }

    #[test]
    fn strategies_agree_via_facade() {
        let db = tiny_db();
        db.load(
            "PEOPLE",
            (0..20).map(|i| {
                Tuple::full(vec![Value::text(format!("p{i}")), Value::number(20.0 + i as f64)])
            }),
        )
        .unwrap();
        let sql = "SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = 'medium young'";
        let a = db.query(sql).run().unwrap();
        let b = db.query(sql).strategy(Strategy::Naive).run().unwrap();
        assert_eq!(a.answer.canonicalized(), b.answer.canonicalized());
        assert!(a.measurement.io.reads > 0);
    }

    #[test]
    fn threshold_helper_and_builder_threshold() {
        let db = tiny_db();
        db.insert("PEOPLE", Tuple::full(vec![Value::text("Ann"), Value::number(23.0)])).unwrap();
        let sql = "SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = 'medium young'";
        let ans = db.query(sql).collect().unwrap();
        assert_eq!(Database::threshold(&ans, 0.5).len(), 1); // degree 0.6
        assert_eq!(Database::threshold(&ans, 0.65).len(), 0);
        // The builder's per-statement default threshold agrees.
        assert_eq!(db.query(sql).threshold(0.5).collect().unwrap().len(), 1);
        assert_eq!(db.query(sql).threshold(0.65).collect().unwrap().len(), 0);
        // An explicit WITH D wins over the session default.
        let explicit = format!("{sql} WITH D > 0.1");
        assert_eq!(db.query(explicit).threshold(0.65).collect().unwrap().len(), 1);
    }

    #[test]
    fn sessions_share_ddl_and_cache() {
        let db = tiny_db();
        db.insert("PEOPLE", Tuple::full(vec![Value::text("Ann"), Value::number(24.0)])).unwrap();
        let s1 = db.session();
        let s2 = db.session();
        let sql = "SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = 'medium young'";
        assert_eq!(s1.query(sql).collect().unwrap().len(), 1);
        let stats = db.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(s2.query(sql).collect().unwrap().len(), 1);
        let stats = db.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "second session hits the shared cache");
        // DDL through one handle is visible to the other.
        s1.create_table("T2", Schema::of(&[("X", AttrType::Number)])).unwrap();
        assert!(s2.catalog().table("T2").is_some());
    }

    #[test]
    fn prepared_queries_pin_and_go_stale() {
        let db = tiny_db();
        db.insert("PEOPLE", Tuple::full(vec![Value::text("Ann"), Value::number(24.0)])).unwrap();
        let prepared =
            db.prepare("SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = 'medium young'").unwrap();
        let first = prepared.run().unwrap();
        assert_eq!(first.answer.len(), 1);
        assert_eq!(first.serving.plan_verifications, 0);
        assert_eq!(first.serving.cache_hit, Some(true));
        // DML bumps the catalog version: the pinned plan is now stale.
        db.insert("PEOPLE", Tuple::full(vec![Value::text("Bob"), Value::number(25.0)])).unwrap();
        match prepared.run() {
            Err(EngineError::StalePlan { planned_version, catalog_version }) => {
                assert!(catalog_version > planned_version);
            }
            other => panic!("expected StalePlan, got {other:?}"),
        }
        // Re-preparing sees the new data.
        let again =
            db.prepare("SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = 'medium young'").unwrap();
        assert_eq!(again.collect().unwrap().len(), 2);
    }
}
