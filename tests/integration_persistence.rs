//! Persistence integration tests: a database saved with `Database::open` +
//! `save` survives process (handle) boundaries with identical query answers.

use fuzzy_db::core::{Trapezoid, Value};
use fuzzy_db::rel::{AttrType, Schema, Tuple};
use fuzzy_db::Database;
use std::path::PathBuf;

fn temp_base(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fuzzy_db_it_{tag}_{}", std::process::id()));
    p
}

fn cleanup(base: &std::path::Path) {
    let _ = std::fs::remove_file(base.with_extension("pages"));
    let _ = std::fs::remove_file(base.with_extension("manifest"));
}

#[test]
fn database_roundtrips_through_disk() {
    let base = temp_base("roundtrip");
    cleanup(&base);
    let query = "SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = 'medium young' \
                 ORDER BY D DESC";
    let first_answer;
    {
        let db = Database::open(&base).unwrap();
        db.define_term("medium young", Trapezoid::new(20.0, 25.0, 30.0, 35.0).unwrap());
        db.create_table(
            "PEOPLE",
            Schema::of(&[("NAME", AttrType::Text), ("AGE", AttrType::Number)]).with_key("NAME"),
        )
        .unwrap();
        db.load(
            "PEOPLE",
            vec![
                Tuple::full(vec![Value::text("Ann"), Value::number(24.0)]),
                Tuple::full(vec![
                    Value::text("Bo"),
                    Value::fuzzy(Trapezoid::triangular(30.0, 35.0, 40.0).unwrap()),
                ]),
                Tuple::full(vec![Value::text("Cy"), Value::number(70.0)]),
            ],
        )
        .unwrap();
        first_answer = db.query(query).collect().unwrap();
        assert_eq!(first_answer.len(), 2);
        db.save().unwrap();
    }
    // Reopen from disk: schema, vocabulary, key, data, and answers identical.
    {
        let db = Database::open(&base).unwrap();
        let catalog = db.catalog();
        let t = catalog.table("PEOPLE").unwrap();
        assert_eq!(t.num_tuples(), 3);
        assert_eq!(t.schema().key(), Some(0));
        assert!(catalog.vocabulary().get("medium young").is_some());
        let again = db.query(query).collect().unwrap();
        assert_eq!(again, first_answer);
    }
    cleanup(&base);
}

#[test]
fn appends_after_reopen_are_visible_after_save() {
    let base = temp_base("append");
    cleanup(&base);
    {
        let db = Database::open(&base).unwrap();
        db.create_table("T", Schema::of(&[("X", AttrType::Number)])).unwrap();
        db.insert("T", Tuple::full(vec![Value::number(1.0)])).unwrap();
        db.save().unwrap();
    }
    {
        let db = Database::open(&base).unwrap();
        db.insert("T", Tuple::full(vec![Value::number(2.0)])).unwrap();
        db.save().unwrap();
    }
    {
        let db = Database::open(&base).unwrap();
        let rel = db.table_contents("T").unwrap();
        assert_eq!(rel.len(), 2);
    }
    cleanup(&base);
}

#[test]
fn unsaved_tables_are_absent_after_reopen() {
    let base = temp_base("unsaved");
    cleanup(&base);
    {
        let db = Database::open(&base).unwrap();
        db.create_table("GONE", Schema::of(&[("X", AttrType::Number)])).unwrap();
        // No save.
    }
    {
        let db = Database::open(&base).unwrap();
        assert!(db.catalog().table("GONE").is_none());
    }
    cleanup(&base);
}

#[test]
fn in_memory_databases_refuse_save() {
    let db = Database::new();
    let err = db.save().unwrap_err();
    assert!(err.to_string().contains("in-memory"));
}

/// An UPDATE or DELETE frees the file it replaced only once a saved
/// manifest no longer lists it: until the next save, reads and loads
/// allocate elsewhere, so a database dropped without saving reopens
/// with its saved rows intact.
#[test]
fn unsaved_rewrites_leave_the_saved_rows_intact() {
    let base = temp_base("unsaved_rewrite");
    cleanup(&base);
    let schema = || Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number)]);
    let rows = |n: usize| {
        (0..n).map(|i| Tuple::full(vec![Value::number(i as f64), Value::number((i % 7) as f64)]))
    };
    let saved;
    {
        let db = Database::open(&base).unwrap();
        db.create_table("A", schema()).unwrap();
        db.create_table("B", schema()).unwrap();
        db.load("A", rows(600)).unwrap();
        db.load("B", rows(300)).unwrap();
        db.save().unwrap();
        saved = db.table_contents("A").unwrap();
        db.execute("DELETE FROM A WHERE A.ID < 500").unwrap();
        // A sorting read and a new table's load both allocate pages.
        let sorted = "SELECT B.ID FROM B WHERE B.X IN (SELECT A.X FROM A WHERE A.ID > 550)";
        assert!(!db.query(sorted).collect().unwrap().is_empty());
        db.create_table("Z", schema()).unwrap();
        db.load("Z", rows(2000)).unwrap();
        // No save.
    }
    {
        let db = Database::open(&base).unwrap();
        assert_eq!(db.table_contents("A").unwrap(), saved, "the saved rows were overwritten");
    }
    cleanup(&base);
}

/// Saving after a rewrite frees the replaced file's pages.
#[test]
fn a_save_frees_the_files_rewrites_replaced() {
    let base = temp_base("save_frees");
    cleanup(&base);
    {
        let db = Database::open(&base).unwrap();
        db.create_table("A", Schema::of(&[("ID", AttrType::Number)])).unwrap();
        db.load("A", (0..600).map(|i| Tuple::full(vec![Value::number(i as f64)]))).unwrap();
        db.save().unwrap();
        let table_pages = || db.catalog().table("A").unwrap().num_pages();
        let before = db.disk().live_pages() - table_pages();
        db.execute("DELETE FROM A WHERE A.ID < 300").unwrap();
        assert!(db.disk().live_pages() > before + table_pages(), "freed before the save");
        db.save().unwrap();
        assert_eq!(db.disk().live_pages(), before + table_pages());
    }
    {
        let db = Database::open(&base).unwrap();
        assert_eq!(db.table_contents("A").unwrap().len(), 300);
    }
    cleanup(&base);
}
