//! Integration tests of the extended Fuzzy SQL surface: GROUP BY + HAVING
//! with fuzzy aggregates, ORDER BY (degree and interval order), LIMIT
//! (possibilistic top-k), and similarity predicates (`~ ... WITHIN`).

use fuzzy_db::core::{Trapezoid, Value};
use fuzzy_db::rel::{AttrType, Schema, Tuple};
use fuzzy_db::{Database, Strategy};

fn sales_db() -> Database {
    let db = Database::with_paper_vocabulary();
    db.create_table(
        "SALES",
        Schema::of(&[
            ("REGION", AttrType::Text),
            ("AMOUNT", AttrType::Number),
            ("AGE", AttrType::Number),
        ]),
    )
    .unwrap();
    let fuzzy = |a, b, c| Value::fuzzy(Trapezoid::triangular(a, b, c).unwrap());
    db.load(
        "SALES",
        vec![
            Tuple::full(vec![Value::text("north"), Value::number(10.0), Value::number(24.0)]),
            Tuple::full(vec![Value::text("north"), Value::number(20.0), Value::number(27.0)]),
            Tuple::full(vec![Value::text("north"), fuzzy(28.0, 30.0, 32.0), Value::number(33.0)]),
            Tuple::full(vec![Value::text("south"), Value::number(5.0), Value::number(61.0)]),
            Tuple::full(vec![Value::text("south"), fuzzy(6.0, 8.0, 10.0), Value::number(45.0)]),
            Tuple::full(vec![Value::text("west"), Value::number(100.0), Value::number(50.0)]),
        ],
    )
    .unwrap();
    db
}

#[test]
fn group_by_with_count_and_sum() {
    let db = sales_db();
    let ans = db
        .query("SELECT SALES.REGION, COUNT(SALES.AMOUNT), SUM(SALES.AMOUNT) FROM SALES GROUP BY SALES.REGION").collect().unwrap();
    assert_eq!(ans.len(), 3);
    let north = ans.tuples().iter().find(|t| t.values[0] == Value::text("north")).unwrap();
    assert_eq!(north.values[1], Value::number(3.0));
    // Fuzzy SUM: 10 + 20 + tri(28,30,32) = tri(58,60,62).
    assert_eq!(north.values[2], Value::fuzzy(Trapezoid::triangular(58.0, 60.0, 62.0).unwrap()));
}

#[test]
fn having_filters_groups() {
    let db = sales_db();
    let ans = db
        .query(
            "SELECT SALES.REGION FROM SALES GROUP BY SALES.REGION \
             HAVING COUNT(*) >= 2",
        )
        .collect()
        .unwrap();
    let regions: Vec<String> = ans.tuples().iter().map(|t| t.values[0].to_string()).collect();
    assert!(regions.contains(&"north".to_string()));
    assert!(regions.contains(&"south".to_string()));
    assert!(!regions.contains(&"west".to_string()));
}

#[test]
fn having_with_fuzzy_aggregate_grades_groups() {
    // HAVING over a fuzzy aggregate yields graded group degrees, not 0/1:
    // south's SUM is 5 + tri(6,8,10) = tri(11,13,15); compared > 14 the
    // group survives partially.
    let db = sales_db();
    let ans = db
        .query(
            "SELECT SALES.REGION FROM SALES GROUP BY SALES.REGION \
             HAVING SUM(SALES.AMOUNT) > 14",
        )
        .collect()
        .unwrap();
    let south = ans.tuples().iter().find(|t| t.values[0] == Value::text("south"));
    let d = south.expect("south partially satisfies").degree.value();
    assert!(d > 0.0 && d < 1.0, "expected graded degree, got {d}");
}

#[test]
fn having_column_must_be_grouped() {
    let db = sales_db();
    let err = db
        .query("SELECT SALES.REGION FROM SALES GROUP BY SALES.REGION HAVING SALES.AMOUNT > 1")
        .collect()
        .unwrap_err();
    assert!(err.to_string().contains("not in GROUP BY"), "{err}");
}

#[test]
fn order_by_degree_ranks_possibilistic_answers() {
    let db = sales_db();
    let ans = db
        .query(
            "SELECT SALES.REGION FROM SALES WHERE SALES.AGE = 'medium young' \
             ORDER BY D DESC",
        )
        .collect()
        .unwrap();
    let degrees: Vec<f64> = ans.tuples().iter().map(|t| t.degree.value()).collect();
    assert!(!degrees.is_empty());
    assert!(degrees.windows(2).all(|w| w[0] >= w[1]), "not descending: {degrees:?}");
}

#[test]
fn limit_gives_top_k() {
    let db = sales_db();
    let top1 = db
        .query(
            "SELECT SALES.REGION FROM SALES WHERE SALES.AGE = 'medium young' \
             ORDER BY D DESC LIMIT 1",
        )
        .collect()
        .unwrap();
    assert_eq!(top1.len(), 1);
    // The age 27 tuple is a full member of medium young.
    assert_eq!(top1.tuples()[0].degree.value(), 1.0);
    let none = db.query("SELECT SALES.REGION FROM SALES LIMIT 0").collect().unwrap();
    assert!(none.is_empty());
}

#[test]
fn order_by_column_uses_interval_order() {
    let db = sales_db();
    let ans = db.query("SELECT SALES.AMOUNT FROM SALES ORDER BY AMOUNT").collect().unwrap();
    let firsts: Vec<f64> = ans.tuples().iter().map(|t| t.values[0].interval().unwrap().0).collect();
    assert!(firsts.windows(2).all(|w| w[0] <= w[1]), "not ⪯-ordered: {firsts:?}");
}

#[test]
fn order_and_limit_apply_on_all_strategies() {
    let db = sales_db();
    let sql = "SELECT SALES.REGION FROM SALES WHERE SALES.AMOUNT IN \
               (SELECT S2.AMOUNT FROM SALES S2) ORDER BY D DESC LIMIT 2";
    // This reuses the SALES binding inside the sub-query under a different
    // alias, so both strategies can handle it.
    for strategy in [Strategy::Naive, Strategy::Unnest] {
        let out = db.query(sql).strategy(strategy).run().unwrap();
        assert!(out.answer.len() <= 2, "{strategy:?}: {}", out.answer);
    }
}

#[test]
fn similarity_predicate_end_to_end() {
    let db = sales_db();
    // amount ~ 18 within 5: matches 20 with degree 1 - 2/5 = 0.6.
    let ans = db
        .query("SELECT SALES.AMOUNT FROM SALES WHERE SALES.AMOUNT ~ 18 WITHIN 5")
        .collect()
        .unwrap();
    assert_eq!(ans.len(), 1);
    assert!((ans.tuples()[0].degree.value() - 0.6).abs() < 1e-9);
    // Zero tolerance is a parse error; plain equality gives nothing at 18.
    assert!(db
        .query("SELECT SALES.AMOUNT FROM SALES WHERE SALES.AMOUNT = 18")
        .collect()
        .unwrap()
        .is_empty());
}

#[test]
fn limit_in_subquery_falls_back_to_naive() {
    let db = sales_db();
    let out = db
        .query(
            "SELECT SALES.REGION FROM SALES WHERE SALES.AMOUNT IN \
             (SELECT S2.AMOUNT FROM SALES S2 ORDER BY D DESC LIMIT 1)",
        )
        .strategy(Strategy::Unnest)
        .run()
        .unwrap();
    assert_eq!(out.plan_label, "naive-fallback");
}

#[test]
fn linguistic_hedges_in_queries() {
    let db = sales_db();
    // Ages 24, 27, 33ish in "north": "very medium young" concentrates the
    // term, so 24 (0.8 under the base term) drops to 0.6.
    let base = db
        .query("SELECT SALES.AGE FROM SALES WHERE SALES.AGE = 'medium young' ORDER BY AGE")
        .collect()
        .unwrap();
    let very = db
        .query("SELECT SALES.AGE FROM SALES WHERE SALES.AGE = 'very medium young' ORDER BY AGE")
        .collect()
        .unwrap();
    assert!(!very.is_empty());
    for t in very.tuples() {
        let b = base.degree_of(&t.values);
        assert!(t.degree <= b, "very must not raise degrees: {} vs {}", t.degree, b);
    }
    let somewhat = db
        .query("SELECT SALES.AGE FROM SALES WHERE SALES.AGE = 'somewhat medium young'")
        .collect()
        .unwrap();
    assert!(somewhat.len() >= base.len(), "somewhat widens the match set");
}

#[test]
fn degree_pseudo_column_in_predicates() {
    // Section 5's device: "a membership degree attribute can be used by
    // itself as a predicate". Queries referencing R.D in WHERE clauses are
    // evaluated by the naive strategy (the physical plans have no degree
    // column to bind), via transparent fallback.
    let db = Database::with_paper_vocabulary();
    db.create_table("T", Schema::of(&[("NAME", AttrType::Text)])).unwrap();
    db.load(
        "T",
        vec![
            Tuple::new(vec![Value::text("weak")], fuzzy_db::core::Degree::new(0.2).unwrap()),
            Tuple::new(vec![Value::text("strong")], fuzzy_db::core::Degree::new(0.9).unwrap()),
        ],
    )
    .unwrap();
    let out =
        db.query("SELECT T.NAME FROM T WHERE T.D >= 0.5").strategy(Strategy::Unnest).run().unwrap();
    assert_eq!(out.plan_label, "naive-fallback", "{}", out.plan_label);
    assert_eq!(out.answer.len(), 1);
    assert_eq!(out.answer.tuples()[0].values[0], Value::text("strong"));
    // Unlike WITH D (which thresholds the final answer), a D predicate joins
    // the conjunction: the weak tuple's answer degree would be
    // min(0.2, [0.2 >= 0.5]) = 0.
    let all = db.query("SELECT T.NAME FROM T WITH D > 0.1").collect().unwrap();
    assert_eq!(all.len(), 2);
}

/// The session threshold filters the answer *before* ORDER BY and LIMIT on
/// every strategy, the naive evaluator and the naive fallback included: the
/// top-k of the thresholded answer, not the thresholded top-k. Rows are
/// compared by count and degree sequence (equal-degree ties may break
/// differently across strategies).
#[test]
fn threshold_applies_before_limit_on_every_strategy() {
    use fuzzy_db::core::Degree;
    let db = Database::new();
    let number = |n: f64| Value::number(n);
    db.create_table(
        "R",
        Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number), ("V", AttrType::Number)]),
    )
    .unwrap();
    db.create_table("S", Schema::of(&[("X", AttrType::Number)])).unwrap();
    db.create_table("T", Schema::of(&[("V", AttrType::Number)])).unwrap();
    let degrees = [0.125, 0.25, 0.375, 0.625, 0.75, 1.0];
    db.load(
        "R",
        degrees.iter().enumerate().map(|(i, &d)| {
            let i = i as f64;
            Tuple::new(vec![number(i), number(i % 3.0), number(10.0)], Degree::new(d).unwrap())
        }),
    )
    .unwrap();
    db.load("S", (0..3).map(|x| Tuple::full(vec![number(f64::from(x))]))).unwrap();
    db.load("T", [Tuple::full(vec![number(10.0)])]).unwrap();

    let degrees_of = |sql: &str, strategy: Strategy| -> (String, Vec<f64>) {
        let out = db.query(sql).strategy(strategy).threshold(0.5).run().unwrap();
        (out.plan_label, out.answer.tuples().iter().map(|t| t.degree.value()).collect())
    };
    let want = vec![0.625, 0.75, 1.0];
    let unnestable = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) ORDER BY D LIMIT 3";
    for strategy in [Strategy::Unnest, Strategy::NestedLoop, Strategy::Naive] {
        let (label, got) = degrees_of(unnestable, strategy);
        assert_eq!(got, want, "{strategy:?} ({label})");
    }
    let fallback = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) \
                    AND R.V IN (SELECT T.V FROM T) ORDER BY D LIMIT 3";
    for strategy in [Strategy::Unnest, Strategy::Naive] {
        let (label, got) = degrees_of(fallback, strategy);
        assert_eq!(got, want, "{strategy:?} ({label})");
    }
    assert_eq!(degrees_of(fallback, Strategy::Unnest).0, "naive-fallback");
}
