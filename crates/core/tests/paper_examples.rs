//! End-to-end reproduction of the paper's running examples, checking that
//! all four strategies (naive reference, unnested merge-join, nested-loop
//! baseline, and the Section 2.3 materialized nested loop) produce identical
//! fuzzy relations, and that Example 4.1's printed degrees are matched
//! exactly.

use fuzzy_core::Value;
use fuzzy_engine::{Engine, Strategy};
use fuzzy_rel::Relation;
use fuzzy_storage::SimDisk;
use fuzzy_workload::paper;
use std::collections::HashMap;

const STRATEGIES: [Strategy; 4] =
    [Strategy::Naive, Strategy::Unnest, Strategy::NestedLoop, Strategy::MaterializedNestedLoop];

fn degrees(rel: &Relation) -> HashMap<String, f64> {
    rel.dedup_max()
        .tuples()
        .iter()
        .map(|t| {
            let key = t.values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|");
            (key, t.degree.value())
        })
        .collect()
}

fn assert_same_answers(answers: &[(Strategy, Relation)]) {
    let reference = degrees(&answers[0].1);
    for (s, rel) in &answers[1..] {
        let got = degrees(rel);
        assert_eq!(
            got.len(),
            reference.len(),
            "strategy {s:?} returned {} rows, reference {}:\n{:?}\nvs\n{:?}",
            got.len(),
            reference.len(),
            got,
            reference
        );
        for (k, d) in &reference {
            let g = got.get(k).unwrap_or_else(|| panic!("strategy {s:?} missing row {k}"));
            assert!((g - d).abs() < 1e-9, "strategy {s:?} degree mismatch for {k}: {g} vs {d}");
        }
    }
}

fn run_all(engine: &Engine, sql: &str) -> Vec<(Strategy, Relation)> {
    STRATEGIES
        .iter()
        .map(|&s| {
            let out =
                engine.run_sql(sql, s).unwrap_or_else(|e| panic!("{s:?} failed on {sql}: {e}"));
            (s, out.answer)
        })
        .collect()
}

#[test]
fn example_41_type_n_query_2() {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::dating_service(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT F.NAME FROM F \
               WHERE F.AGE = 'medium young' AND F.INCOME IN \
               (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
    // The paper's printed answer: {Ann: 0.7, Betty: 0.7}.
    let d = degrees(&answers[0].1);
    assert_eq!(d.len(), 2, "answer: {d:?}");
    assert!((d["Ann"] - 0.7).abs() < 1e-9, "Ann: {}", d["Ann"]);
    assert!((d["Betty"] - 0.7).abs() < 1e-9, "Betty: {}", d["Betty"]);
}

#[test]
fn example_41_intermediate_relation_t() {
    // The inner block alone: T with about 40K -> 0.4, high -> 1 (and Carl's
    // medium low -> 0.5, which the paper's printed table truncates).
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::dating_service(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT M.INCOME FROM M WHERE M.AGE = 'middle age'";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
    let d = degrees(&answers[0].1);
    assert_eq!(d.len(), 3, "T: {d:?}");
    let about_40k = d.iter().find(|(k, _)| k.contains("35") && k.contains("45")).unwrap();
    assert!((about_40k.1 - 0.4).abs() < 1e-9);
    let high = d.iter().find(|(k, _)| k.contains("120")).unwrap();
    assert!((high.1 - 1.0).abs() < 1e-9);
    let medium_low = d.iter().find(|(k, _)| k.contains("15") && k.contains("35")).unwrap();
    assert!((medium_low.1 - 0.5).abs() < 1e-9);
}

#[test]
fn query_1_flat_join() {
    // Query 1: pairs about the same age where the male income exceeds
    // "medium high".
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::dating_service(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT F.NAME, M.NAME FROM F, M \
               WHERE F.AGE = M.AGE AND M.INCOME > 'medium high'";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
    let d = degrees(&answers[0].1);
    // Bill (middle age, high income) pairs with every F member whose age
    // overlaps middle age.
    assert!(d.keys().any(|k| k.ends_with("|Bill")), "answer: {d:?}");
    // Betty (middle age) with Bill (middle age): ages match fully, income
    // 'high' > 'medium high' has a positive degree.
    let betty_bill = d.iter().find(|(k, _)| k.as_str() == "Betty|Bill");
    assert!(betty_bill.is_some(), "answer: {d:?}");
}

#[test]
fn query_2_with_threshold() {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::dating_service(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT F.NAME FROM F \
               WHERE F.AGE = 'medium young' AND F.INCOME IN \
               (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age') \
               WITH D > 0.65";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
    assert_eq!(answers[0].1.len(), 2); // both rows are exactly 0.7 > 0.65
    let sql_high = sql.replace("0.65", "0.7");
    let answers = run_all(&engine, &sql_high);
    assert_same_answers(&answers);
    assert_eq!(answers[0].1.len(), 0, "strict threshold at exactly 0.7 empties the answer");
}

#[test]
fn query_4_type_jx_not_in() {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::employees(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.NAME FROM EMP_SALES R WHERE R.INCOME NOT IN \
               (SELECT S.INCOME FROM EMP_RESEARCH S WHERE S.AGE = R.AGE)";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
    let d = degrees(&answers[0].1);
    // Dana's (medium young, medium high) profile is exactly matched by Hal in
    // research, so Dana's exclusion degree drops to 0: not in the answer.
    assert!(!d.contains_key("Dana"), "answer: {d:?}");
    // Fay (about 50, low income): no researcher with her age has income
    // 'low', so she is fully in the answer.
    assert!((d["Fay"] - 1.0).abs() < 1e-9, "answer: {d:?}");
}

#[test]
fn query_5_type_ja_aggregate() {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::cities(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.NAME FROM CITIES_REGION_A R \
               WHERE R.AVE_HOME_INCOME > \
               (SELECT MAX(S.AVE_HOME_INCOME) FROM CITIES_REGION_B S \
                WHERE S.POPULATION = R.POPULATION)";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
    let d = degrees(&answers[0].1);
    assert!(!d.is_empty(), "expected at least one city, got {d:?}");
}

#[test]
fn count_aggregate_with_outer_join_branch() {
    // COUNT': cities in A with fewer than 2 similarly-sized cities in B;
    // cities with NO similarly-sized city in B (empty group) must still
    // appear via the IF-THEN-ELSE branch comparing against 0.
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::cities(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.NAME FROM CITIES_REGION_A R \
               WHERE 2 > \
               (SELECT COUNT(S.AVE_HOME_INCOME) FROM CITIES_REGION_B S \
                WHERE S.POPULATION = R.POPULATION)";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
    let d = degrees(&answers[0].1);
    assert!(!d.is_empty(), "answer: {d:?}");
}

#[test]
fn jall_quantified_query() {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::employees(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.NAME FROM EMP_SALES R WHERE R.INCOME < ALL \
               (SELECT S.INCOME FROM EMP_RESEARCH S WHERE S.AGE = R.AGE)";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
    // Fay has no same-age researcher: T(r) empty, degree 1 by definition.
    let d = degrees(&answers[0].1);
    assert!((d["Fay"] - 1.0).abs() < 1e-9, "answer: {d:?}");
}

#[test]
fn jsome_quantified_query() {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::employees(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.NAME FROM EMP_SALES R WHERE R.INCOME = SOME \
               (SELECT S.INCOME FROM EMP_RESEARCH S WHERE S.AGE = R.AGE)";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
    let d = degrees(&answers[0].1);
    assert!((d["Dana"] - 1.0).abs() < 1e-9, "Dana matches Hal exactly: {d:?}");
}

#[test]
fn chain_query_three_levels() {
    // A 3-level chain over the dating and employee catalogs is not natural;
    // build one over the dating catalog: F -> M -> F would reuse bindings,
    // so use the employees catalog joined through incomes and ages.
    let disk = SimDisk::with_default_page_size();
    let mut catalog = paper::dating_service(&disk).unwrap();
    // Register the employee tables on the same disk/catalog.
    let emp = paper::employees(&disk).unwrap();
    for name in ["EMP_SALES", "EMP_RESEARCH"] {
        catalog.register(emp.table(name).unwrap().clone());
    }
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT F.NAME FROM F WHERE F.INCOME IN \
               (SELECT E.INCOME FROM EMP_SALES E WHERE E.AGE = F.AGE AND E.INCOME IN \
                (SELECT S.INCOME FROM EMP_RESEARCH S WHERE S.AGE = E.AGE))";
    let unnest = engine.run_sql(sql, Strategy::Unnest).unwrap();
    assert!(unnest.plan_label.contains("flat-join[3"), "label: {}", unnest.plan_label);
    // The baselines run the three-table plan as a chain of nested-loop steps.
    assert_same_answers(&run_all(&engine, sql));
}

#[test]
fn uncorrelated_aggregate_type_a() {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::employees(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.NAME FROM EMP_SALES R WHERE R.INCOME > \
               (SELECT AVG(S.INCOME) FROM EMP_RESEARCH S)";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
}

#[test]
fn uncorrelated_not_in_type_nx() {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::employees(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.NAME FROM EMP_SALES R WHERE R.INCOME NOT IN \
               (SELECT S.INCOME FROM EMP_RESEARCH S)";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
}

#[test]
fn uncorrelated_all_type_all() {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::employees(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.NAME FROM EMP_SALES R WHERE R.INCOME >= ALL \
               (SELECT S.INCOME FROM EMP_RESEARCH S)";
    let answers = run_all(&engine, sql);
    assert_same_answers(&answers);
}

#[test]
fn appendix_example_crisp_vs_distribution() {
    // The Appendix example: R(X, Y) with crisp Y values y1, y2; S(Y, Z) with
    // one tuple whose Y is possibly y1 (1) or y2 (0.8). Both x1 and x2 are
    // possible answers with degrees 1 and 0.8. We model y1 = 10, y2 = 20 and
    // the distribution as a rectangle-free trapezoid is impossible for a
    // discrete set, so we use two S tuples carrying the alternatives with
    // membership degrees 1 and 0.8 — the fuzzy-set-of-tuples reading.
    use fuzzy_core::Degree;
    use fuzzy_rel::{AttrType, Catalog, Schema, StoredTable, Tuple};
    let disk = SimDisk::with_default_page_size();
    let mut catalog = Catalog::new();
    let r = StoredTable::create(
        &disk,
        "R",
        Schema::of(&[("X", AttrType::Text), ("Y", AttrType::Number)]),
    );
    r.load([
        Tuple::full(vec![Value::text("x1"), Value::number(10.0)]),
        Tuple::full(vec![Value::text("x2"), Value::number(20.0)]),
    ])
    .unwrap();
    catalog.register(r);
    let s = StoredTable::create(
        &disk,
        "S",
        Schema::of(&[("Y", AttrType::Number), ("Z", AttrType::Text)]),
    );
    s.load([
        Tuple::new(vec![Value::number(10.0), Value::text("z1")], Degree::ONE),
        Tuple::new(vec![Value::number(20.0), Value::text("z1")], Degree::new(0.8).unwrap()),
    ])
    .unwrap();
    catalog.register(s);
    let engine = Engine::over(catalog.clone().into(), &disk);
    let answers = run_all(&engine, "SELECT R.X FROM R, S WHERE R.Y = S.Y");
    assert_same_answers(&answers);
    let d = degrees(&answers[0].1);
    assert!((d["x1"] - 1.0).abs() < 1e-9);
    assert!((d["x2"] - 0.8).abs() < 1e-9);
}

#[test]
fn query_3_is_the_unnested_form_of_query_2() {
    // Section 2.3 displays Query 3, the flat form of Query 2, and asserts
    // their equivalence; here both are executed and compared directly.
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::dating_service(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let query2 = "SELECT F.NAME FROM F \
                  WHERE F.AGE = 'medium young' AND F.INCOME IN \
                  (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')";
    let query3 = "SELECT F.NAME FROM F, M \
                  WHERE F.AGE = 'medium young' AND \
                  M.AGE = 'middle age' AND F.INCOME = M.INCOME";
    for s2 in STRATEGIES {
        for s3 in STRATEGIES {
            let a2 = engine.run_sql(query2, s2).unwrap().answer;
            let a3 = engine.run_sql(query3, s3).unwrap().answer;
            assert_same_answers(&[(s2, a2), (s3, a3)]);
        }
    }
}
