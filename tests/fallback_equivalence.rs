//! The naive fallback of `Strategy::Unnest` evaluates each closed nested
//! block once per statement; `Strategy::Naive`, the oracle, re-runs every
//! block per outer tuple. These tests check the two agree exactly — same
//! rows, same order, same degrees (compared in `Debug` form), and the same
//! error where the oracle fails — on shapes that put the closedness
//! analysis to the test: outer references that only a walk of the whole
//! subtree finds (a middle block correlated through its EXISTS child),
//! unqualified outer columns, outer columns in GROUP BY, HAVING and
//! aggregate inputs, aliases that shadow the outer binding, and closed
//! blocks with their own presentation. DELETE and UPDATE matching, which
//! uses the same serving evaluator, must affect the rows the oracle selects.

use fuzzy_db::core::{Degree, Trapezoid, Value};
use fuzzy_db::rel::{AttrType, Schema, Tuple};
use fuzzy_db::{Database, Strategy};

/// R (12 tuples of ID, X, V, W), S (9 of ID, X, V) and T (6 of ID, X, V).
/// X is crisp or triangular around multiples of 10, so IN degrees are
/// fractional; V takes a few values; W exists only in R, so an unqualified
/// `W` inside a sub-query over S or T resolves to the outer tuple. Some
/// tuples carry membership degrees below 1.
fn fixture() -> Database {
    let db = Database::with_paper_vocabulary();
    for (name, n, outer) in [("R", 12usize, true), ("S", 9, false), ("T", 6, false)] {
        let mut attrs =
            vec![("ID", AttrType::Number), ("X", AttrType::Number), ("V", AttrType::Number)];
        if outer {
            attrs.push(("W", AttrType::Number));
        }
        db.create_table(name, Schema::of(&attrs)).unwrap();
        let salt = n as f64;
        db.load(
            name,
            (0..n).map(|i| {
                let centre = ((i + n) % 4) as f64 * 10.0;
                let x = if i % 3 == 1 {
                    Value::fuzzy(Trapezoid::triangular(centre - 4.0, centre, centre + 4.0).unwrap())
                } else {
                    Value::number(centre + if i % 5 == 4 { 2.0 } else { 0.0 })
                };
                let mut values =
                    vec![Value::number(i as f64), x, Value::number(100.0 + ((i * 7) % 5) as f64)];
                if outer {
                    values.push(Value::number(100.0 + (i % 4) as f64));
                }
                let degree = if i % 4 == 3 { 0.5 + salt / 100.0 } else { 1.0 };
                Tuple::new(values, Degree::new(degree).unwrap())
            }),
        )
        .unwrap();
    }
    db
}

/// Runs `sql` under the oracle and under `Strategy::Unnest`, checks the
/// latter is served by the naive fallback, and requires identical results.
/// Returns the oracle's answer size (0 for an error).
fn assert_fallback_matches_oracle(db: &Database, sql: &str) -> usize {
    let explain = db.query(sql).explain().unwrap_or_else(|e| panic!("EXPLAIN {sql}: {e}"));
    assert!(explain.contains("strategy: naive fallback"), "not a fallback shape: {sql}\n{explain}");
    let oracle = db.query(sql).strategy(Strategy::Naive).run();
    let served = db.query(sql).strategy(Strategy::Unnest).run();
    match (oracle, served) {
        (Ok(oracle), Ok(served)) => {
            assert_eq!(served.plan_label, "naive-fallback", "{sql}");
            assert_eq!(
                format!("{:?}", served.answer),
                format!("{:?}", oracle.answer),
                "fallback answer differs from the oracle's: {sql}"
            );
            oracle.answer.len()
        }
        (Err(oracle), Err(served)) => {
            assert_eq!(format!("{served:?}"), format!("{oracle:?}"), "{sql}");
            0
        }
        (oracle, served) => panic!("{sql}: oracle {oracle:?} vs fallback {served:?}"),
    }
}

/// Asserts every shape agrees, and that not every answer is empty.
fn check_all(shapes: &[&str]) {
    let db = fixture();
    let total: usize = shapes.iter().map(|sql| assert_fallback_matches_oracle(&db, sql)).sum();
    assert!(total > 0, "every answer is empty: the shapes test nothing");
}

#[test]
fn general_shape_matches_the_oracle() {
    check_all(&[
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) AND R.V IN (SELECT T.V FROM T)",
        "SELECT R.ID, R.X FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V > 101) \
         AND R.V IN (SELECT T.V FROM T WHERE T.X = 10)",
    ]);
}

/// The middle block's only outer reference is in its EXISTS child, so it is
/// correlated although its own predicates mention only its own binding.
#[test]
fn block_correlated_through_its_child_matches_the_oracle() {
    check_all(&[
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE EXISTS \
         (SELECT T.ID FROM S T WHERE T.X = R.X AND T.ID = S.ID))",
        "SELECT R.ID FROM R WHERE R.V IN (SELECT S.V FROM S WHERE S.ID IN \
         (SELECT T.ID FROM T WHERE T.X = R.X)) AND R.X IN (SELECT T.X FROM T)",
    ]);
}

/// `W` is unqualified and only R has it: it resolves to the outer tuple.
#[test]
fn unqualified_outer_column_matches_the_oracle() {
    check_all(&[
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = W) \
         AND R.V IN (SELECT T.V FROM T)",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT X FROM S WHERE V < W) \
         AND R.V IN (SELECT V FROM T)",
    ]);
}

/// Outer columns as the grouping key (kept or dropped by HAVING) and as an
/// aggregate input.
#[test]
fn outer_group_key_and_aggregate_input_match_the_oracle() {
    check_all(&[
        "SELECT R.ID FROM R WHERE R.V IN (SELECT MAX(S.V) FROM S GROUP BY R.X \
         HAVING R.X > 15) AND R.X IN (SELECT T.X FROM T)",
        "SELECT R.ID FROM R WHERE R.V IN (SELECT MIN(S.V) FROM S GROUP BY R.W \
         HAVING R.W > 101) AND R.X IN (SELECT T.X FROM T)",
        "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(R.W) FROM S) \
         AND R.X IN (SELECT T.X FROM T)",
    ]);
}

/// `FROM S R` shadows the outer R: the inner block is closed.
#[test]
fn shadowing_alias_matches_the_oracle() {
    check_all(&[
        "SELECT R.ID FROM R WHERE R.X IN (SELECT R.X FROM S R WHERE R.V > 101) \
         AND R.V IN (SELECT T.V FROM T)",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT r.X FROM S r WHERE R.V > 101) \
         AND R.V IN (SELECT T.V FROM T WHERE T.X <> R.X)",
    ]);
}

/// A closed block is kept after its own WITH, ORDER BY and LIMIT.
#[test]
fn closed_block_with_its_own_presentation_matches_the_oracle() {
    check_all(&[
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V > 100 \
         WITH D > 0.4 ORDER BY S.X DESC LIMIT 3) AND R.V IN (SELECT T.V FROM T)",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S ORDER BY D LIMIT 2) \
         AND R.V IN (SELECT T.V FROM T WITH D >= 0.6)",
    ]);
}

#[test]
fn closed_blocks_under_every_predicate_kind_match_the_oracle() {
    check_all(&[
        "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.V > 103) \
         AND R.V >= ALL (SELECT T.V FROM T WHERE T.V < 102)",
        "SELECT R.ID FROM R WHERE EXISTS (SELECT S.ID FROM S WHERE S.V > 103) \
         AND R.V > (SELECT AVG(T.V) FROM T)",
        "SELECT R.ID FROM R WHERE NOT EXISTS (SELECT S.ID FROM S WHERE S.V > 200) \
         AND R.X = SOME (SELECT T.X FROM T WHERE T.V < 103)",
    ]);
}

/// A grouped scalar sub-query that returns two rows is the same
/// `Unsupported` error both ways, closed or correlated.
#[test]
fn two_row_scalar_subquery_fails_the_same_way() {
    let db = fixture();
    for sql in [
        "SELECT R.ID FROM R WHERE R.V > (SELECT MAX(S.V) FROM S GROUP BY S.V) \
         AND R.X IN (SELECT T.X FROM T)",
        "SELECT R.ID FROM R WHERE R.V > (SELECT MAX(S.V) FROM S WHERE S.X = R.X \
         GROUP BY S.V) AND R.X IN (SELECT T.X FROM T)",
    ] {
        let err = db.query(sql).strategy(Strategy::Naive).run().unwrap_err();
        assert!(format!("{err:?}").contains("Unsupported"), "{err:?}");
        assert_fallback_matches_oracle(&db, sql);
    }
}

/// The IDs of R the oracle selects under `condition`.
fn oracle_ids(db: &Database, condition: &str) -> Vec<Value> {
    let sql = format!("SELECT R.ID FROM R WHERE {condition}");
    let answer = db.query(&sql).strategy(Strategy::Naive).collect().unwrap();
    let mut ids: Vec<Value> = answer.tuples().iter().map(|t| t.values[0].clone()).collect();
    ids.sort_by_key(|id| id.to_string());
    ids
}

/// DELETE and UPDATE match with the serving evaluator; they must affect
/// exactly the rows the oracle's SELECT returns under the same condition.
#[test]
fn dml_matching_agrees_with_the_oracle_select() {
    let conditions = [
        "R.X IN (SELECT S.X FROM S)",
        "R.X IN (SELECT S.X FROM S WHERE S.V > 101) AND R.V IN (SELECT T.V FROM T)",
        "R.X IN (SELECT S.X FROM S WHERE S.V = R.V)",
        "R.X NOT IN (SELECT S.X FROM S WHERE S.V = W)",
        "EXISTS (SELECT S.ID FROM S WHERE S.X = R.X AND S.ID IN \
         (SELECT T.ID FROM T WHERE T.V = R.V))",
        // Sub-queries that read the table being rewritten: one closed, one
        // correlated.
        "R.V > (SELECT AVG(R2.V) FROM R R2)",
        "R.X IN (SELECT R2.X FROM R R2 WHERE R2.V > R.W AND R2.ID > R.ID)",
    ];
    let mut nonempty = 0;
    for condition in conditions {
        let expected = oracle_ids(&fixture(), condition);
        nonempty += usize::from(!expected.is_empty());

        let db = fixture();
        let all = oracle_ids(&db, "R.ID >= 0");
        let result = db.execute(&format!("DELETE FROM R WHERE {condition}")).unwrap();
        assert!(
            matches!(result, fuzzy_db::StatementResult::Affected(n) if n == expected.len()),
            "DELETE {condition}: {result:?} vs {expected:?}"
        );
        let kept = oracle_ids(&db, "R.ID >= 0");
        let deleted: Vec<Value> = all.into_iter().filter(|id| !kept.contains(id)).collect();
        assert_eq!(deleted, expected, "DELETE {condition}");

        let db = fixture();
        let result = db.execute(&format!("UPDATE R SET W = 999 WHERE {condition}")).unwrap();
        assert!(
            matches!(result, fuzzy_db::StatementResult::Affected(n) if n == expected.len()),
            "UPDATE {condition}: {result:?} vs {expected:?}"
        );
        assert_eq!(oracle_ids(&db, "R.W = 999"), expected, "UPDATE {condition}");
    }
    assert!(nonempty >= 3, "too few conditions match any row");
}
