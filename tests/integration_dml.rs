//! DDL/DML integration tests: CREATE TABLE, DEFINE TERM, INSERT with
//! degrees and fuzzy literals, fuzzy DELETE/UPDATE matching, and the
//! interplay with queries.

use fuzzy_db::core::Value;
use fuzzy_db::engine::ExecConfig;
use fuzzy_db::rel::Tuple;
use fuzzy_db::{Database, EngineError, StatementResult, Strategy};

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

/// The `(ID, X)` rows of `F`, with their degrees, in ID order.
fn f_rows(db: &Database) -> Vec<(Vec<Value>, f64)> {
    let out = db.execute("SELECT F.ID, F.X FROM F ORDER BY F.ID").unwrap();
    rows(&out).tuples().iter().map(|t| (t.values.clone(), t.degree.value())).collect()
}

fn f_and_g() -> Database {
    let db = Database::new();
    for stmt in [
        "CREATE TABLE F (ID NUMBER KEY, X NUMBER)",
        "CREATE TABLE G (X NUMBER)",
        "INSERT INTO F VALUES (1, 50)",
        "INSERT INTO F VALUES (2, 150)",
        "INSERT INTO F VALUES (3, 250) WITH D = 0.5",
        "INSERT INTO G VALUES (1)",
    ] {
        db.execute(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
    }
    db
}

#[test]
fn delete_and_update_tails_accept_only_where_and_with() {
    let db = f_and_g();
    let before = f_rows(&db);
    for stmt in [
        "DELETE FROM F HAVING F.X > 100",
        "UPDATE F SET X = 1 HAVING F.X > 100",
        "DELETE FROM F, G WHERE F.X = 1",
        "UPDATE F, G SET X = 1 WHERE F.X = 1",
        "DELETE FROM F AS G",
        "DELETE FROM F G WHERE G.X = 50",
        "DELETE FROM F WHERE F.X = 50 GROUP BY F.X",
        "UPDATE F SET X = 1 WHERE F.X = 50 ORDER BY D",
        "DELETE FROM F WITH D > 0.5 LIMIT 1",
    ] {
        match db.execute(stmt) {
            Err(EngineError::Parse(_)) => {}
            other => panic!("{stmt}: expected a parse error, got {other:?}"),
        }
        assert_eq!(f_rows(&db), before, "{stmt} changed F");
    }
    // The accepted tail still matches as before.
    let r = db.execute("DELETE FROM F WHERE F.X > 100 WITH D > 0.6").unwrap();
    assert_eq!(affected(&r), 2, "IDs 2 and 3");
}

/// A DELETE/UPDATE `WITH D > z` compares `z` with the WHERE-condition
/// degree alone, while a SELECT compares it with min(membership,
/// condition): F's row 3 (X = 250 at membership 0.5) satisfies `F.X > 100`
/// fully, so it is no answer of the SELECT but is deleted.
#[test]
fn dml_threshold_compares_the_condition_degree_alone() {
    let db = f_and_g();
    let out = db.execute("SELECT F.ID FROM F WHERE F.X > 100 WITH D > 0.6").unwrap();
    let ids: Vec<Value> = rows(&out).tuples().iter().map(|t| t.values[0].clone()).collect();
    assert_eq!(ids, vec![Value::number(2.0)]);
    let r = db.execute("DELETE FROM F WHERE F.X > 100 WITH D > 0.6").unwrap();
    assert_eq!(affected(&r), 2, "IDs 2 and 3");
    assert_eq!(f_rows(&db), vec![(vec![Value::number(1.0), Value::number(50.0)], 1.0)]);
    // UPDATE matches the same rows and keeps their memberships.
    let db = f_and_g();
    let r = db.execute("UPDATE F SET X = 0 WHERE F.X > 100 WITH D > 0.6").unwrap();
    assert_eq!(affected(&r), 2);
    assert_eq!(f_rows(&db)[2], (vec![Value::number(3.0), Value::number(0.0)], 0.5));
}

#[test]
fn update_target_qualifier_must_name_the_updated_table() {
    let db = f_and_g();
    let before = f_rows(&db);
    match db.execute("UPDATE F SET G.X = 42 WHERE F.ID = 1") {
        Err(EngineError::Bind(_)) => {}
        other => panic!("expected a binding error, got {other:?}"),
    }
    assert_eq!(f_rows(&db), before);
    // Qualified by the target table's own name (in any case), it updates.
    let r = db.execute("UPDATE F SET F.X = 42 WHERE F.ID = 1").unwrap();
    assert_eq!(affected(&r), 1);
    let r = db.execute("UPDATE F SET f.X = 43 WHERE F.ID = 2").unwrap();
    assert_eq!(affected(&r), 1);
    let after: Vec<Value> = f_rows(&db).into_iter().map(|(v, _)| v[1].clone()).collect();
    assert_eq!(after, vec![Value::number(42.0), Value::number(43.0), Value::number(250.0)]);
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
    // ANALYZE is the explicit way to re-plan: a cached plan keeps its join
    // order across writes, and the next read after ANALYZE misses the cache.
    let sql = "SELECT PEOPLE.NAME FROM PEOPLE WHERE PEOPLE.AGE = 'medium young'";
    db.query(sql).run().unwrap();
    db.execute("INSERT INTO PEOPLE VALUES (5, 'Eve', 24)").unwrap();
    assert_eq!(db.query(sql).run().unwrap().serving.cache_hit, Some(true));
    db.execute("ANALYZE PEOPLE").unwrap();
    let replanned = db.query(sql).run().unwrap();
    assert_eq!(replanned.serving.cache_hit, Some(false));
    assert_eq!(db.plan_cache_stats().invalidations, 1);
    let naive = db.query(sql).strategy(Strategy::Naive).collect().unwrap();
    assert_eq!(replanned.answer.canonicalized(), naive.canonicalized());
    assert_eq!(naive.len(), 3, "Ann, Bo and the inserted Eve");
}

/// ANALYZE builds every numeric histogram of a table with one scan: on a
/// table of several pages with two numeric columns and a two-page buffer,
/// it reads each page exactly once.
#[test]
fn analyze_scans_a_table_once() {
    let mut db = Database::new();
    db.set_exec_config(ExecConfig { buffer_pages: 2, ..Default::default() });
    db.execute("CREATE TABLE WIDE (ID NUMBER KEY, NAME TEXT, V NUMBER)").unwrap();
    db.load(
        "WIDE",
        (0..2000).map(|i| {
            let values = vec![
                Value::number(i as f64),
                Value::text(format!("n{i}")),
                Value::number(0.5 * i as f64),
            ];
            Tuple::full(values)
        }),
    )
    .unwrap();
    let pages = db.catalog().table("WIDE").unwrap().num_pages();
    assert!(pages >= 3, "the table must not fit the buffer: {pages} pages");
    let before = db.disk().io().reads;
    assert_eq!(affected(&db.execute("ANALYZE WIDE").unwrap()), 2);
    assert_eq!(db.disk().io().reads - before, pages, "one read per page");
    // Both histograms are cached now: analyzing again reads nothing.
    let before = db.disk().io().reads;
    assert_eq!(affected(&db.execute("ANALYZE WIDE").unwrap()), 2);
    assert_eq!(db.disk().io().reads, before);
}

/// A two-column R (ID, X) and an S holding one row.
fn two_column_db() -> Database {
    let db = Database::new();
    for stmt in [
        "CREATE TABLE R (ID NUMBER, X NUMBER)",
        "CREATE TABLE S (NAME TEXT, X NUMBER)",
        "INSERT INTO S VALUES ('s', 1)",
    ] {
        db.execute(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
    }
    db
}

/// `insert` checks a tuple against the table's schema before writing it: a
/// wrong arity or a value of the wrong type is a bind error and writes
/// nothing, so every strategy still reads the table. NULL fits any column.
#[test]
fn insert_rejects_a_tuple_that_does_not_fit_the_schema() {
    let db = two_column_db();
    let bad = [
        Tuple::full(vec![Value::number(1.0)]),
        Tuple::full(vec![Value::number(1.0), Value::number(2.0), Value::number(3.0)]),
        Tuple::full(vec![Value::number(1.0), Value::text("one")]),
    ];
    for tuple in bad {
        let err = db.insert("R", tuple.clone());
        assert!(matches!(err, Err(EngineError::Bind(_))), "{tuple:?}: {err:?}");
    }
    let err = db.insert("S", Tuple::full(vec![Value::number(1.0), Value::number(1.0)]));
    assert!(matches!(err, Err(EngineError::Bind(_))), "a number in a text column: {err:?}");
    assert_eq!(db.catalog().table("R").unwrap().num_tuples(), 0);
    db.insert("R", Tuple::full(vec![Value::number(1.0), Value::Null])).unwrap();
    db.insert("R", Tuple::full(vec![Value::number(2.0), Value::number(1.0)])).unwrap();
    let sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)";
    for strategy in [Strategy::Naive, Strategy::Unnest, Strategy::NestedLoop] {
        let out = db.query(sql).strategy(strategy).run().unwrap();
        assert_eq!(out.answer.len(), 1, "{strategy:?}");
    }
}

/// `load` checks every tuple before it writes any: one tuple that does not
/// fit fails the whole load with a bind error and leaves the table empty.
#[test]
fn load_writes_nothing_when_a_tuple_does_not_fit() {
    let db = two_column_db();
    let rows = |bad: Tuple| {
        (0..3).map(|i| Tuple::full(vec![Value::number(i as f64), Value::number(1.0)])).chain([bad])
    };
    for bad in [
        Tuple::full(vec![Value::number(9.0)]),
        Tuple::full(vec![Value::number(9.0), Value::text("nine")]),
    ] {
        let err = db.load("R", rows(bad.clone()));
        assert!(matches!(err, Err(EngineError::Bind(_))), "{bad:?}: {err:?}");
        assert_eq!(db.catalog().table("R").unwrap().num_tuples(), 0, "{bad:?}");
    }
    db.load("R", rows(Tuple::full(vec![Value::Null, Value::Null]))).unwrap();
    assert_eq!(db.catalog().table("R").unwrap().num_tuples(), 4);
}
