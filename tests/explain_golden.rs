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
use fuzzy_db::engine::{ExecConfig, JoinMethod};
use fuzzy_db::rel::{AttrType, Schema, Tuple};
use fuzzy_db::{Database, StatementResult, Strategy};

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
    check_text(name, fixture().query(sql).explain().expect("EXPLAIN failed"))
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

/// A join step with no equality driver runs as a nested loop, which sorts
/// nothing: the estimates show only the pair bound.
#[test]
fn golden_flat_non_equi() {
    check("flat_non_equi", "SELECT R.ID FROM R, S WHERE R.X < S.X");
}

/// The partitioned join replaces the sort boundary: no sort estimates.
#[test]
fn golden_flat_partitioned() {
    let config = ExecConfig { join_method: JoinMethod::Partitioned, ..ExecConfig::default() };
    let sql = "SELECT R.ID FROM R, S WHERE R.X = S.X";
    check_text("flat_partitioned", fixture().query(sql).config(config).explain().unwrap());
}

/// The chain3 golden's statement: the optimizer orders its joins by the
/// relations' sizes.
const CHAIN3: &str = "SELECT R.ID FROM R WHERE R.X IN \
                      (SELECT S.X FROM S WHERE S.X IN (SELECT T.X FROM T))";

/// The text of an `EXPLAIN [ANALYZE | VERIFY]` statement.
fn explained(db: &Database, statement: &str) -> String {
    match db.execute(statement).expect("EXPLAIN failed") {
        StatementResult::Explained(text) => text,
        other => panic!("expected Explained, got {other:?}"),
    }
}

/// The `join order:` line of an EXPLAIN text.
fn join_order(text: &str) -> &str {
    text.lines()
        .find_map(|l| l.strip_prefix("join order: "))
        .unwrap_or_else(|| panic!("no join order in\n{text}"))
}

/// Every form of EXPLAIN renders the plan the statement's runs drive. A data
/// write keeps the cached chain plan, whose join order was chosen for the old
/// sizes; until ANALYZE re-plans, EXPLAIN, EXPLAIN VERIFY, a prepared
/// statement's EXPLAIN and the operators EXPLAIN ANALYZE runs all show that
/// cached order, and afterwards all of them show the new one. The `join
/// order:` line gives the sizes the order was ranked on when it was planned,
/// so after the write it still reads T 4 while the scan shows T's 54 tuples.
#[test]
fn explain_renders_the_plan_that_runs_after_a_write() {
    let db = fixture();
    db.query(CHAIN3).run().unwrap();
    db.load(
        "T",
        (4..54).map(|i| {
            Tuple::full(vec![
                Value::number(i as f64),
                Value::number((i % 3) as f64 * 10.0),
                Value::number(100.0 + i as f64),
            ])
        }),
    )
    .unwrap();

    // EXPLAIN ANALYZE lists the operators it then runs, in order.
    let analyzed = explained(&db, &format!("EXPLAIN ANALYZE {CHAIN3}"));
    let section = |header: &str| -> Vec<String> {
        analyzed
            .split(header)
            .nth(1)
            .unwrap_or_else(|| panic!("no {header} in\n{analyzed}"))
            .lines()
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .map(str::to_string)
            .collect()
    };
    let planned: Vec<String> = section("operators:")
        .iter()
        .map(|l| {
            let name = l.trim_start().split_once(' ').map_or("", |(_, n)| n);
            name.split(" -> ").next().unwrap_or("").to_string()
        })
        .collect();
    let ran: Vec<String> = section("actual:")
        .iter()
        .map(|l| {
            let label = l.trim_start().split_once("] ").map_or("", |(_, n)| n);
            label.split(": in=").next().unwrap_or("").to_string()
        })
        .collect();
    assert!(!ran.is_empty(), "{analyzed}");
    assert_eq!(planned, ran, "EXPLAIN ANALYZE ran other operators than it shows:\n{analyzed}");

    // The static forms show the cached order too.
    let forms = |db: &Database| -> [String; 3] {
        [
            explained(db, &format!("EXPLAIN {CHAIN3}")),
            explained(db, &format!("EXPLAIN VERIFY {CHAIN3}")),
            db.prepare(CHAIN3).unwrap().explain().unwrap(),
        ]
    };
    for text in forms(&db).iter().chain([&analyzed]) {
        assert_eq!(
            join_order(text),
            "T -> S -> R (ranked by est. rows at plan time: T 4, S 6, R 8)",
            "{text}"
        );
    }
    assert!(analyzed.contains("  scan  T (54 tuples, 2 pages)\n"), "{analyzed}");

    // ANALYZE bumps the schema version: the statement re-plans for the new
    // sizes, and an EXPLAIN's lookup plans it for the run that follows.
    db.execute("ANALYZE").unwrap();
    let [explain, verify, prepared] = forms(&db);
    let analyzed = explained(&db, &format!("EXPLAIN ANALYZE {CHAIN3}"));
    assert!(
        analyzed.contains("plan cache: hit (verifications this statement: 0)"),
        "the run after an EXPLAIN re-planned:\n{analyzed}"
    );
    for text in [explain, verify, prepared, analyzed] {
        assert_eq!(
            join_order(&text),
            "S -> R -> T (ranked by est. rows at plan time: S 6, R 8, T 54)",
            "{text}"
        );
    }
}
