//! Golden-file tests pinning the `EXPLAIN` rendering byte-for-byte for one
//! query of every class in the paper's catalogue (plus the naive fallback),
//! and the operator trees the two nested-loop baselines lower to.
//!
//! The rendered text is fully deterministic: it depends only on the catalog
//! (fixed fixture tables), the execution configuration (defaults), and the
//! plan — never on wall time or thread count. Any drift is a real change to
//! planning or rendering and must be reviewed.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test explain_golden
//! ```

use fuzzy_db::core::Value;
use fuzzy_db::rel::{AttrType, Schema, Tuple};
use fuzzy_db::{Database, Strategy};

/// A deterministic three-table fixture: R (8 tuples), S (6), T (4), all with
/// the same (ID, X, V) numeric schema so every query class can be expressed.
fn fixture() -> Database {
    let db = Database::with_paper_vocabulary();
    for (name, n) in [("R", 8usize), ("S", 6), ("T", 4)] {
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
            (0..n).map(|i| {
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

fn check(name: &str, sql: &str) {
    check_db(&fixture(), name, sql)
}

fn check_db(db: &Database, name: &str, sql: &str) {
    check_text(name, db.explain(sql).expect("EXPLAIN failed"))
}

/// Pins the `EXPLAIN` text of a statement run under a baseline strategy.
fn check_strategy(name: &str, sql: &str, strategy: Strategy) {
    check_text(name, fixture().query(sql).strategy(strategy).explain().expect("EXPLAIN failed"))
}

fn check_text(name: &str, actual: String) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = dir.join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test \
             explain_golden` to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "EXPLAIN drift for {name} (golden {}); if intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test explain_golden`",
        path.display()
    );
}

#[test]
fn golden_flat() {
    check("flat", "SELECT R.ID FROM R, S WHERE R.X = S.X WITH D > 0.3");
}

#[test]
fn golden_type_n() {
    check("type_n", "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)");
}

#[test]
fn golden_type_j() {
    check("type_j", "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)");
}

#[test]
fn golden_type_some() {
    check("type_some", "SELECT R.ID FROM R WHERE R.X = SOME (SELECT S.X FROM S WHERE S.V = R.V)");
}

#[test]
fn golden_type_nx() {
    check("type_nx", "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)");
}

#[test]
fn golden_type_jx() {
    check("type_jx", "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.V = R.V)");
}

#[test]
fn golden_type_a() {
    check("type_a", "SELECT R.ID FROM R WHERE R.V > (SELECT AVG(S.V) FROM S)");
}

#[test]
fn golden_type_ja() {
    check("type_ja", "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)");
}

#[test]
fn golden_type_all() {
    check("type_all", "SELECT R.ID FROM R WHERE R.V > ALL (SELECT T.V FROM T)");
}

#[test]
fn golden_chain3() {
    check(
        "chain3",
        "SELECT R.ID FROM R WHERE R.X IN \
         (SELECT S.X FROM S WHERE S.X IN (SELECT T.X FROM T))",
    );
}

/// The pipelined three-way chain is pinned with zero intermediate
/// materialization (`-> temp table`) lines; the same plan with
/// `pipeline_joins` off is pinned showing the temp-table spill it replaces.
#[test]
fn golden_chain3_materialized() {
    let sql = "SELECT R.ID FROM R WHERE R.X IN \
               (SELECT S.X FROM S WHERE S.X IN (SELECT T.X FROM T))";
    let mut db = fixture();
    db.set_exec_config(fuzzy_db::engine::ExecConfig {
        pipeline_joins: false,
        ..Default::default()
    });
    check_db(&db, "chain3_materialized", sql);
    let materialized = db.explain(sql).unwrap();
    assert!(materialized.contains("-> temp table"), "{materialized}");
    assert!(!materialized.contains("-> pipelined"), "{materialized}");
    let pipelined = fixture().explain(sql).unwrap();
    assert!(pipelined.contains("-> pipelined"), "{pipelined}");
    assert!(!pipelined.contains("-> temp table"), "{pipelined}");
}

#[test]
fn golden_general_fallback() {
    check(
        "general_fallback",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) \
         AND R.V IN (SELECT T.V FROM T)",
    );
}

#[test]
fn golden_nested_loop_flat() {
    check_strategy(
        "nested_loop_type_j",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)",
        Strategy::NestedLoop,
    );
}

#[test]
fn golden_nested_loop_anti() {
    check_strategy(
        "nested_loop_type_jx",
        "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.V = R.V)",
        Strategy::NestedLoop,
    );
}

#[test]
fn golden_nested_loop_agg() {
    check_strategy(
        "nested_loop_type_ja",
        "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)",
        Strategy::NestedLoop,
    );
}

/// Section 2.3's intermediate-relation method: the local predicates are
/// filtered by the scans, ahead of the nested loop.
#[test]
fn golden_materialized_nested_loop_local_preds() {
    check_strategy(
        "materialized_nl_local_preds",
        "SELECT R.ID FROM R WHERE R.V > 102 AND R.X IN \
         (SELECT S.X FROM S WHERE S.V < 104)",
        Strategy::MaterializedNestedLoop,
    );
}
