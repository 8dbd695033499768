//! Statement-end temporary reclamation.
//!
//! Every page a statement allocates is a temporary — sort runs, partition
//! scratch, materialized intermediates — so `Engine::run` returns all of
//! them to the simulated disk's free list when the statement finishes.
//! These regressions pin that contract over the full query corpus: the
//! live-page count returns to its pre-statement baseline after every class,
//! and repeated statements reuse reclaimed pages instead of growing the
//! disk.

use fuzzy_db::core::Value;
use fuzzy_db::engine::{Engine, ExecConfig, JoinMethod, Strategy};
use fuzzy_db::rel::{AttrType, Schema, Tuple};
use fuzzy_db::Database;

/// The golden suite's deterministic three-table fixture.
fn fixture(scale: usize) -> Database {
    let db = Database::with_paper_vocabulary();
    for (name, base) in [("R", 8usize), ("S", 6), ("T", 4)] {
        db.create_table(
            name,
            Schema::of(&[
                ("ID", AttrType::Number),
                ("X", AttrType::Number),
                ("V", AttrType::Number),
            ]),
        )
        .unwrap();
        db.load(
            name,
            (0..base * scale).map(|i| {
                Tuple::full(vec![
                    Value::number(i as f64),
                    Value::number((i % 3) as f64 * 10.0),
                    Value::number(100.0 + i as f64),
                ])
            }),
        )
        .unwrap();
    }
    db
}

/// One query per class of the paper's catalogue (the golden suite's corpus,
/// `general_fallback` included — the naive evaluator's temporaries are
/// reclaimed by the same statement-end hook).
const CORPUS: &[(&str, &str)] = &[
    ("flat", "SELECT R.ID FROM R, S WHERE R.X = S.X WITH D > 0.3"),
    ("type_n", "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)"),
    ("type_j", "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)"),
    ("type_some", "SELECT R.ID FROM R WHERE R.X = SOME (SELECT S.X FROM S WHERE S.V = R.V)"),
    ("type_nx", "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)"),
    ("type_jx", "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.V = R.V)"),
    ("type_a", "SELECT R.ID FROM R WHERE R.V > (SELECT AVG(S.V) FROM S)"),
    ("type_ja", "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)"),
    ("type_all", "SELECT R.ID FROM R WHERE R.V > ALL (SELECT T.V FROM T)"),
    (
        "chain3",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.X IN (SELECT T.X FROM T))",
    ),
    (
        "general_fallback",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) AND R.V IN (SELECT T.V FROM T)",
    ),
];

/// After each of the 11 corpus classes the live-page count is back to the
/// pre-statement baseline: no statement leaks its temporaries.
#[test]
fn live_pages_return_to_baseline_after_every_corpus_class() {
    let db = fixture(4);
    let engine = Engine::over(db.catalog(), db.disk());
    let baseline = db.disk().live_pages();
    assert!(baseline > 0, "fixture tables should own pages");
    let mut nonempty = 0usize;
    for (name, sql) in CORPUS {
        let out = engine.run_sql(sql, Strategy::Unnest).unwrap();
        nonempty += usize::from(!out.answer.is_empty());
        assert_eq!(db.disk().live_pages(), baseline, "{name}: statement leaked temp pages");
    }
    assert!(nonempty >= 6, "corpus mostly empty ({nonempty} non-empty): fixture broken?");
}

/// Repeating a statement reuses the reclaimed pages: the disk's total page
/// count stops growing after the first execution (for the partitioned join
/// and the naive reference too).
#[test]
fn repeated_statements_do_not_grow_the_disk() {
    let db = fixture(4);
    let sql = CORPUS.iter().find(|(n, _)| *n == "chain3").unwrap().1;
    for (label, engine, strategy) in [
        ("merge", Engine::over(db.catalog(), db.disk()), Strategy::Unnest),
        (
            "partitioned",
            Engine::over(db.catalog(), db.disk()).with_config(ExecConfig {
                join_method: JoinMethod::Partitioned,
                ..Default::default()
            }),
            Strategy::Unnest,
        ),
        ("naive", Engine::over(db.catalog(), db.disk()), Strategy::Naive),
    ] {
        let baseline = db.disk().live_pages();
        let first = engine.run_sql(sql, strategy).unwrap();
        let high_water = db.disk().num_pages();
        for _ in 0..3 {
            let again = engine.run_sql(sql, strategy).unwrap();
            assert_eq!(
                again.answer.canonicalized(),
                first.answer.canonicalized(),
                "{label}: answers drifted across repeats"
            );
            assert_eq!(
                db.disk().num_pages(),
                high_water,
                "{label}: repeated statements grew the disk"
            );
            assert_eq!(db.disk().live_pages(), baseline, "{label}: leaked temp pages");
        }
    }
}

/// The error path reclaims too: a statement that fails to bind frees
/// whatever it had already allocated.
#[test]
fn failed_statements_reclaim_their_pages() {
    let db = fixture(1);
    let engine = Engine::over(db.catalog(), db.disk());
    let baseline = db.disk().live_pages();
    let err =
        engine.run_sql("SELECT R.ID FROM R, S WHERE R.X = S.X ORDER BY NOPE", Strategy::Unnest);
    assert!(err.is_err(), "expected a bind error");
    assert_eq!(db.disk().live_pages(), baseline, "error path leaked temp pages");
}

/// A two-page table for the rewrite checks: `(ID, X, V)` rows, IDs 0..n.
fn two_page_table(db: &Database) -> usize {
    db.create_table(
        "W",
        Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number), ("V", AttrType::Number)]),
    )
    .unwrap();
    let n = 300;
    db.load(
        "W",
        (0..n).map(|i| {
            Tuple::full(vec![Value::number(i as f64), Value::number(1.0), Value::number(2.0)])
        }),
    )
    .unwrap();
    assert_eq!(db.catalog().table("W").unwrap().num_pages(), 2, "fixture should span 2 pages");
    n
}

/// UPDATE and DELETE rewrite the table into a fresh file and free the file
/// they replaced: across 50 updates and 50 deletes the disk holds exactly
/// the table's pages on top of the baseline.
#[test]
fn rewrites_free_the_file_they_replace() {
    let db = Database::new();
    let baseline = db.disk().live_pages();
    two_page_table(&db);
    let table_pages = || db.catalog().table("W").unwrap().num_pages();
    for i in 0..50 {
        db.execute(&format!("UPDATE W SET V = {i} WHERE W.ID = {i}")).unwrap();
        assert_eq!(db.disk().live_pages(), baseline + table_pages(), "update {i} leaked");
    }
    for i in 0..50 {
        db.execute(&format!("DELETE FROM W WHERE W.ID = {i}")).unwrap();
        assert_eq!(db.disk().live_pages(), baseline + table_pages(), "delete {i} leaked");
    }
    assert_eq!(db.table_contents("W").unwrap().len(), 250);
}

/// A catalog snapshot taken before a DELETE keeps the replaced file: it
/// still scans its old rows while the database sees the new ones.
#[test]
fn a_snapshot_taken_before_a_delete_still_scans_its_old_rows() {
    let db = Database::new();
    let n = two_page_table(&db);
    let snapshot = db.catalog();
    db.execute("DELETE FROM W WHERE W.ID < 100").unwrap();
    // Allocate fresh pages: had the delete freed the snapshot's file, these
    // would reuse (and overwrite) its pages.
    db.create_table("Z", Schema::of(&[("A", AttrType::Number)])).unwrap();
    db.load("Z", (0..2000).map(|i| Tuple::full(vec![Value::number(i as f64)]))).unwrap();
    let old = snapshot.table("W").unwrap().to_relation().unwrap();
    assert_eq!(old.len(), n, "the snapshot's file was freed under it");
    assert!(old.tuples().iter().enumerate().all(|(i, t)| t.values[0] == Value::number(i as f64)));
    assert_eq!(db.table_contents("W").unwrap().len(), n - 100);
    // Once the snapshot is gone, the next rewrite frees the old file.
    drop(snapshot);
    let live = db.disk().live_pages();
    let old_pages = 2;
    db.execute("UPDATE W SET V = 0 WHERE W.ID = 150").unwrap();
    assert_eq!(db.disk().live_pages(), live - old_pages);
}

/// An UPDATE that fails part-way through its scan leaves the disk as it
/// found it: the rewrite allocates nothing before the scan has succeeded.
#[test]
fn a_failing_update_leaves_live_pages_unchanged() {
    let db = Database::new();
    db.create_table("W", Schema::of(&[("ID", AttrType::Number), ("V", AttrType::Number)])).unwrap();
    db.load("W", (0..1200).map(|i| Tuple::full(vec![Value::number(i as f64), Value::number(0.0)])))
        .unwrap();
    let pages = db.catalog().table("W").unwrap().file().page_ids();
    assert!(pages.len() >= 3, "W spans {} pages", pages.len());
    // Point slot 0 of W's last page far past the end of the page.
    let last = *pages.last().unwrap();
    let mut image = db.disk().read_page(last).unwrap().to_vec();
    let entry = image.len() - 4;
    image[entry..entry + 2].copy_from_slice(&u16::MAX.to_le_bytes());
    db.disk().write_page(last, &image).unwrap();
    let live = db.disk().live_pages();
    assert!(db.execute("UPDATE W SET V = 1 WHERE W.ID < 10").is_err());
    assert_eq!(db.disk().live_pages(), live, "the failed rewrite leaked pages");
}
