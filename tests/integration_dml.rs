//! DDL/DML integration tests: CREATE TABLE, DEFINE TERM, INSERT with
//! degrees and fuzzy literals, fuzzy DELETE/UPDATE matching, and the
//! interplay with queries.

use fuzzy_db::core::Value;
use fuzzy_db::{Database, StatementResult};

fn rows(r: &StatementResult) -> &fuzzy_db::rel::Relation {
    match r {
        StatementResult::Rows(rel) => rel,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn affected(r: &StatementResult) -> usize {
    match r {
        StatementResult::Affected(n) => *n,
        other => panic!("expected an affected count, got {other:?}"),
    }
}

fn fresh_db() -> Database {
    let db = Database::new();
    for stmt in [
        "CREATE TABLE PEOPLE (ID NUMBER KEY, NAME TEXT, AGE NUMBER)",
        "DEFINE TERM 'medium young' AS TRAP(20, 25, 30, 35)",
        "DEFINE TERM 'about 40' AS ABOUT(40, 5)",
        "INSERT INTO PEOPLE VALUES (1, 'Ann', 27)",
        "INSERT INTO PEOPLE VALUES (2, 'Bo', ABOUT(35, 5))",
        "INSERT INTO PEOPLE VALUES (3, 'Cy', 'about 40') WITH D = 0.6",
        "INSERT INTO PEOPLE VALUES (4, 'Dee', 70)",
    ] {
        db.execute(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
    }
    db
}

#[test]
fn create_insert_select_pipeline() {
    let db = fresh_db();
    let out = db
        .execute("SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = 'medium young' ORDER BY D DESC")
        .unwrap();
    let rel = rows(&out);
    assert_eq!(rel.len(), 2, "{rel}");
    assert_eq!(rel.tuples()[0].values[0], Value::text("Ann"));
    // Bo's "about 35" partially overlaps medium young.
    assert_eq!(rel.tuples()[1].values[0], Value::text("Bo"));
    assert!(rel.tuples()[1].degree.value() < 1.0);
    // Cy entered with membership 0.6.
    let all = db.execute("SELECT PEOPLE.ID FROM PEOPLE").unwrap();
    assert_eq!(rows(&all).degree_of(&[Value::number(3.0)]).value(), 0.6);
}

#[test]
fn insert_validation() {
    let db = fresh_db();
    // Arity mismatch.
    assert!(db.execute("INSERT INTO PEOPLE VALUES (9, 'X')").is_err());
    // Text into a number column.
    assert!(db.execute("INSERT INTO PEOPLE VALUES (9, 'X', 'unknown term')").is_err());
    // Number into a text column.
    assert!(db.execute("INSERT INTO PEOPLE VALUES (9, 7, 30)").is_err());
    // Degree 0: accepted but not a member.
    let r = db.execute("INSERT INTO PEOPLE VALUES (9, 'X', 30) WITH D = 0").unwrap();
    assert_eq!(affected(&r), 0);
    assert_eq!(rows(&db.execute("SELECT PEOPLE.ID FROM PEOPLE").unwrap()).len(), 4);
}

#[test]
fn fuzzy_delete_with_threshold() {
    let db = fresh_db();
    // "possibly medium young" matches Ann (1.0) and Bo (0.5); the threshold
    // keeps Bo alive.
    let r =
        db.execute("DELETE FROM PEOPLE WHERE PEOPLE.AGE = 'medium young' WITH D > 0.8").unwrap();
    assert_eq!(affected(&r), 1);
    let names = rows(&db.execute("SELECT PEOPLE.NAME FROM PEOPLE").unwrap()).clone();
    let names: Vec<String> = names.tuples().iter().map(|t| t.values[0].to_string()).collect();
    assert!(!names.contains(&"Ann".to_string()));
    assert!(names.contains(&"Bo".to_string()));
    // Unconditional DELETE empties the table.
    let r = db.execute("DELETE FROM PEOPLE").unwrap();
    assert_eq!(affected(&r), 3);
    assert!(rows(&db.execute("SELECT PEOPLE.ID FROM PEOPLE").unwrap()).is_empty());
}

#[test]
fn fuzzy_update_rewrites_matching_tuples() {
    let db = fresh_db();
    let r =
        db.execute("UPDATE PEOPLE SET AGE = TRI(25, 26, 27) WHERE PEOPLE.NAME = 'Ann'").unwrap();
    assert_eq!(affected(&r), 1);
    let out = db.execute("SELECT PEOPLE.AGE FROM PEOPLE WHERE PEOPLE.NAME = 'Ann'").unwrap();
    let rel = rows(&out);
    assert_eq!(rel.len(), 1);
    assert_eq!(rel.tuples()[0].values[0].interval(), Some((25.0, 27.0)));
    // Updates preserve membership degrees.
    db.execute("UPDATE PEOPLE SET NAME = 'Cyrus' WHERE PEOPLE.ID = 3").unwrap();
    let d = rows(&db.execute("SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.ID = 3").unwrap())
        .tuples()[0]
        .degree;
    assert!((d.value() - 0.6).abs() < 1e-12);
}

#[test]
fn delete_with_subquery_condition() {
    let db = fresh_db();
    db.execute("CREATE TABLE BANNED (AGE NUMBER)").unwrap();
    db.execute("INSERT INTO BANNED VALUES (70)").unwrap();
    let r = db
        .execute("DELETE FROM PEOPLE WHERE PEOPLE.AGE IN (SELECT BANNED.AGE FROM BANNED)")
        .unwrap();
    assert_eq!(affected(&r), 1, "only Dee is exactly 70");
    assert_eq!(rows(&db.execute("SELECT PEOPLE.ID FROM PEOPLE").unwrap()).len(), 3);
}

#[test]
fn fuzzy_literals_work_in_where_clauses() {
    let db = fresh_db();
    let out = db
        .execute("SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = TRAP(20, 25, 30, 35)")
        .unwrap();
    assert_eq!(rows(&out).len(), 2);
    let out = db.execute("SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = ABOUT(70, 3)").unwrap();
    assert_eq!(rows(&out).len(), 1);
    // Invalid breakpoints are rejected at execution.
    assert!(db
        .execute("SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = TRAP(5, 4, 3, 2)")
        .is_err());
}

#[test]
fn dml_persists_through_save() {
    let mut base = std::env::temp_dir();
    base.push(format!("fuzzy_db_dml_{}", std::process::id()));
    let _ = std::fs::remove_file(base.with_extension("pages"));
    let _ = std::fs::remove_file(base.with_extension("manifest"));
    {
        let db = Database::open(&base).unwrap();
        db.execute("CREATE TABLE T (X NUMBER)").unwrap();
        db.execute("INSERT INTO T VALUES (1)").unwrap();
        db.execute("INSERT INTO T VALUES (2)").unwrap();
        db.execute("DELETE FROM T WHERE T.X = 1").unwrap();
        db.save().unwrap();
    }
    {
        let db = Database::open(&base).unwrap();
        let rel = db.table_contents("T").unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples()[0].values[0], Value::number(2.0));
    }
    let _ = std::fs::remove_file(base.with_extension("pages"));
    let _ = std::fs::remove_file(base.with_extension("manifest"));
}

#[test]
fn analyze_builds_histograms() {
    let db = fresh_db();
    let r = db.execute("ANALYZE PEOPLE").unwrap();
    // ID and AGE are the numeric columns.
    assert_eq!(affected(&r), 2);
    // Re-analyzing is cheap (cached) and idempotent in count.
    let r = db.execute("ANALYZE").unwrap();
    assert_eq!(affected(&r), 2);
    assert!(db.execute("ANALYZE GHOSTS").is_err());
}
