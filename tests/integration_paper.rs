//! Cross-crate integration tests: the paper's running examples through the
//! `fuzzy-db` facade.

use fuzzy_db::workload::paper;
use fuzzy_db::{Database, Strategy};
use fuzzy_storage::{CostModel, SimDisk};

fn dating_db() -> Database {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::dating_service(&disk).expect("paper catalog");
    Database::from_catalog(catalog, disk)
}

#[test]
fn example_41_exact_answer_via_facade() {
    let db = dating_db();
    let answer = db
        .query(
            "SELECT F.NAME FROM F \
             WHERE F.AGE = 'medium young' AND F.INCOME IN \
             (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')",
        )
        .collect()
        .unwrap();
    let mut rows: Vec<(String, f64)> =
        answer.tuples().iter().map(|t| (t.values[0].to_string(), t.degree.value())).collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].0, "Ann");
    assert!((rows[0].1 - 0.7).abs() < 1e-9);
    assert_eq!(rows[1].0, "Betty");
    assert!((rows[1].1 - 0.7).abs() < 1e-9);
}

#[test]
fn all_strategies_choose_expected_plans() {
    let db = dating_db();
    let sql = "SELECT F.NAME FROM F WHERE F.INCOME IN \
               (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)";
    let unnest = db.query(sql).strategy(Strategy::Unnest).run().unwrap();
    assert!(unnest.plan_label.starts_with("unnest:flat-join"), "{}", unnest.plan_label);
    let nl = db.query(sql).strategy(Strategy::NestedLoop).run().unwrap();
    assert!(nl.plan_label.starts_with("nested-loop:"), "{}", nl.plan_label);
    let naive = db.query(sql).strategy(Strategy::Naive).run().unwrap();
    assert_eq!(naive.plan_label, "naive");
    assert_eq!(unnest.answer.canonicalized(), nl.answer.canonicalized());
    assert_eq!(unnest.answer.canonicalized(), naive.answer.canonicalized());
}

#[test]
fn exists_unnests_and_general_shapes_fall_back() {
    let db = dating_db();
    // EXISTS now unnests to a semi-join-style flat plan.
    let out = db
        .query("SELECT F.NAME FROM F WHERE EXISTS (SELECT M.NAME FROM M WHERE M.AGE = F.AGE)")
        .strategy(Strategy::Unnest)
        .run()
        .unwrap();
    assert!(out.plan_label.starts_with("unnest:flat-join"), "{}", out.plan_label);
    assert!(!out.answer.is_empty());
    let naive = db
        .query("SELECT F.NAME FROM F WHERE EXISTS (SELECT M.NAME FROM M WHERE M.AGE = F.AGE)")
        .strategy(Strategy::Naive)
        .run()
        .unwrap();
    assert_eq!(out.answer.canonicalized(), naive.answer.canonicalized());
    // Shapes outside the catalogue still fall back transparently.
    let out = db
        .query("SELECT F.NAME FROM F WHERE F.AGE IN (SELECT M.AGE FROM M) AND              F.INCOME IN (SELECT M.INCOME FROM M)").strategy(Strategy::Unnest).run()
        .unwrap();
    assert_eq!(out.plan_label, "naive-fallback");
}

#[test]
fn measurement_accounts_io() {
    let db = dating_db();
    let out = db.query("SELECT F.NAME FROM F").strategy(Strategy::Unnest).run().unwrap();
    assert!(out.measurement.io.reads >= 1);
    let rt = out.response_time(&CostModel::default());
    assert!(rt >= out.measurement.cpu);
}

#[test]
fn with_clause_prunes_weak_answers() {
    let db = dating_db();
    let base = "SELECT F.NAME, M.NAME FROM F, M WHERE F.AGE = M.AGE";
    let all = db.query(base).collect().unwrap();
    let strong = db.query(format!("{base} WITH D >= 1")).collect().unwrap();
    assert!(strong.len() < all.len());
    assert!(strong.tuples().iter().all(|t| t.degree.value() >= 1.0 - 1e-12));
}

#[test]
fn vocabulary_terms_resolve_in_queries() {
    let db = dating_db();
    // Conjunctions of terms grade by min: Betty's ill-known "middle age"
    // value is possibly "about 50" (0.4) AND possibly "medium young" (0.7),
    // so she satisfies the conjunction with 0.4. Cathy's "about 50" value
    // cannot be "medium young" at all.
    let both = db
        .query("SELECT F.NAME FROM F WHERE F.AGE = 'about 50' AND F.AGE = 'medium young'")
        .collect()
        .unwrap();
    let names: Vec<String> = both.tuples().iter().map(|t| t.values[0].to_string()).collect();
    assert!(names.contains(&"Betty".to_string()), "answer: {both}");
    assert!(!names.contains(&"Cathy".to_string()), "answer: {both}");
    assert!((both.degree_of(&[fuzzy_core::Value::text("Betty")]).value() - 0.4).abs() < 1e-9);
    // Unknown terms over numeric attributes simply never match.
    let unknown = db.query("SELECT F.NAME FROM F WHERE F.AGE = 'galactic age'").collect().unwrap();
    assert!(unknown.is_empty());
    // Over text attributes, quoted literals are plain strings.
    let ann = db.query("SELECT F.ID FROM F WHERE F.NAME = 'Ann'").collect().unwrap();
    assert_eq!(ann.len(), 2);
}

#[test]
fn explain_describes_plans() {
    let db = dating_db();
    let out = db
        .query(
            "SELECT F.NAME FROM F WHERE F.INCOME NOT IN \
             (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)",
        )
        .explain()
        .unwrap();
    assert!(out.contains("TypeJX"), "{out}");
    assert!(out.contains("Anti"), "{out}");
    assert!(out.contains("merge window"), "{out}");
    let out = db
        .query("SELECT F.NAME FROM F WHERE F.AGE > (SELECT MAX(M.AGE) FROM M WHERE M.INCOME = F.INCOME)")
        .explain()
        .unwrap();
    assert!(out.contains("Aggregate [MAX"), "{out}");
    assert!(out.contains("pipelined"), "{out}");
    let out = db
        .query(
            "SELECT F.NAME FROM F WHERE F.AGE IN (SELECT M.AGE FROM M) AND              F.INCOME IN (SELECT M.INCOME FROM M)",
        )
        .explain()
        .unwrap();
    assert!(out.contains("naive fallback"), "{out}");
}
