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
