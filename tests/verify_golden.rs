//! Golden-file tests pinning the `EXPLAIN VERIFY` rendering byte-for-byte:
//! one clean plan per plan family (flat with threshold push-down, anti,
//! aggregate) plus an injected-failure report, so both the OK and FAILED
//! renderings are under drift control.
//!
//! The text is fully deterministic (properties, rule ids, and counts only —
//! never wall time or thread count). To regenerate after an intentional
//! change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test verify_golden
//! ```

use fuzzy_db::core::{Degree, Value};
use fuzzy_db::engine::explain::render_verify_report;
use fuzzy_db::engine::plan::PlanCol;
use fuzzy_db::engine::{Outline, PhysOp, Prop, VerifyReport};
use fuzzy_db::rel::{AttrType, Schema, Tuple};
use fuzzy_db::{Database, StatementResult};

/// The golden suite's deterministic three-table fixture (R 8, S 6, T 4).
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

fn check(name: &str, actual: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = dir.join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `UPDATE_GOLDEN=1 cargo test --test \
             verify_golden` to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "EXPLAIN VERIFY drift for {name} (golden {}); if intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test verify_golden`",
        path.display()
    );
}

/// Renders `EXPLAIN VERIFY` through the full statement path (parser →
/// facade → engine → verifier → renderer).
fn explain_verify(db: &mut Database, sql: &str) -> String {
    match db.execute(&format!("EXPLAIN VERIFY {sql}")).expect("EXPLAIN VERIFY failed") {
        StatementResult::Explained(text) => text,
        other => panic!("expected Explained, got {other:?}"),
    }
}

#[test]
fn golden_verify_clean_flat() {
    let mut db = fixture();
    check(
        "verify_clean",
        &explain_verify(&mut db, "SELECT R.ID FROM R, S WHERE R.X = S.X WITH D > 0.3"),
    );
}

#[test]
fn golden_verify_clean_anti() {
    let mut db = fixture();
    check(
        "verify_clean_anti",
        &explain_verify(&mut db, "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)"),
    );
}

#[test]
fn golden_verify_clean_agg() {
    let mut db = fixture();
    check(
        "verify_clean_agg",
        &explain_verify(
            &mut db,
            "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)",
        ),
    );
}

#[test]
fn golden_verify_fallback() {
    let mut db = fixture();
    check(
        "verify_fallback",
        &explain_verify(
            &mut db,
            "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) AND R.V IN (SELECT T.V FROM T)",
        ),
    );
}

/// An injected failure: a merge join over unsorted inputs plus an undeclared
/// operator, rendered through the same report renderer `EXPLAIN VERIFY`
/// uses, pinning the FAILED verdict and the violation lines.
#[test]
fn golden_verify_violation() {
    let mut outline = Outline::default();
    outline.ops.push(PhysOp::declare(
        "scan R",
        vec![],
        vec![],
        vec![Prop::Binding("R".into()), Prop::MinDegree(Degree::ZERO)],
    ));
    outline.ops.push(PhysOp::undeclared("mystery-op", vec![0]));
    outline.ops.push(PhysOp::declare(
        "merge-join R.X = S.X",
        vec![0, 1],
        vec![
            (
                0,
                Prop::Sorted { col: PlanCol { binding: "R".into(), attr: 1 }, alpha: Degree::ZERO },
            ),
            (
                1,
                Prop::Sorted { col: PlanCol { binding: "S".into(), attr: 1 }, alpha: Degree::ZERO },
            ),
        ],
        vec![Prop::Binding("R".into()), Prop::Binding("S".into())],
    ));
    let report = VerifyReport::from_outline("flat(R ⋈ S)", "none", Degree::ZERO, outline);
    assert!(!report.ok());
    check("verify_violation", &render_verify_report(&report));
}
