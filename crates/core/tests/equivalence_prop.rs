//! Property-based checks of the unnesting equivalence theorems.
//!
//! For randomly generated fuzzy databases and one query of each type in the
//! paper's catalogue, the three strategies — the naive semantics-faithful
//! evaluator, the unnested merge-join plan, and the block nested-loop
//! baseline — must produce identical fuzzy relations (same tuples, same
//! membership degrees): Theorems 4.1, 4.2, 5.1, 6.1, 7.1, and 8.1.

use fuzzy_core::{Degree, Trapezoid, Value};
use fuzzy_engine::{Engine, Strategy as EvalStrategy};
use fuzzy_rel::{AttrType, Catalog, Relation, Schema, StoredTable, Tuple};
use fuzzy_storage::SimDisk;
use proptest::prelude::*;
use std::collections::HashMap;

/// A compact generated numeric value over a small grid, so overlaps and
/// exact ties are common (the adversarial cases for unnesting).
fn arb_value() -> impl Strategy<Value = Value> {
    let grid = 0..12i32;
    prop_oneof![
        grid.clone().prop_map(|v| Value::number(v as f64)),
        (grid.clone(), 1..4i32, 0..3i32, 1..4i32).prop_map(|(a, w1, wc, w2)| {
            let a = a as f64;
            Value::fuzzy(
                Trapezoid::new(a, a + w1 as f64, a + (w1 + wc) as f64, a + (w1 + wc + w2) as f64)
                    .expect("ordered"),
            )
        }),
    ]
}

fn arb_degree() -> impl Strategy<Value = Degree> {
    // Quantized degrees make exact min/max ties likely.
    (1..=10u32).prop_map(|d| Degree::new(d as f64 / 10.0).unwrap())
}

#[derive(Debug, Clone)]
struct Row {
    x: Value,
    y: Value,
    u: Value,
    d: Degree,
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (arb_value(), arb_value(), arb_value(), arb_degree()).prop_map(|(x, y, u, d)| Row {
            x,
            y,
            u,
            d,
        }),
        0..max,
    )
}

fn build_catalog(disk: &SimDisk, r: &[Row], s: &[Row], t: &[Row]) -> Catalog {
    let mut catalog = Catalog::new();
    let schema = |key: bool| {
        let s = Schema::of(&[
            ("ID", AttrType::Number),
            ("X", AttrType::Number),
            ("Y", AttrType::Number),
            ("U", AttrType::Number),
        ]);
        if key {
            s.with_key("ID")
        } else {
            s
        }
    };
    for (name, rows) in [("R", r), ("S", s), ("T", t)] {
        let table = StoredTable::create(disk, name, schema(true));
        table
            .load(rows.iter().enumerate().map(|(i, row)| {
                Tuple::new(
                    vec![Value::number(i as f64), row.x.clone(), row.y.clone(), row.u.clone()],
                    row.d,
                )
            }))
            .expect("load");
        catalog.register(table);
    }
    catalog
}

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

fn check_equivalence(sql: &str, r: &[Row], s: &[Row], t: &[Row]) -> Result<(), TestCaseError> {
    let disk = SimDisk::with_default_page_size();
    let catalog = build_catalog(&disk, r, s, t);
    let engine = Engine::over(catalog.clone().into(), &disk);
    let naive = engine
        .run_sql(sql, EvalStrategy::Naive)
        .map_err(|e| TestCaseError::fail(format!("naive failed: {e}")))?;
    let unnest = engine
        .run_sql(sql, EvalStrategy::Unnest)
        .map_err(|e| TestCaseError::fail(format!("unnest failed: {e}")))?;
    let reference = degrees(&naive.answer);
    let got = degrees(&unnest.answer);
    prop_assert_eq!(
        got.len(),
        reference.len(),
        "row count mismatch for {}\nnaive: {:?}\nunnest ({}): {:?}",
        sql,
        reference,
        unnest.plan_label,
        got
    );
    for (k, d) in &reference {
        let g = got
            .get(k)
            .ok_or_else(|| TestCaseError::fail(format!("unnest missing row {k} for {sql}")))?;
        prop_assert!(
            (g - d).abs() < 1e-9,
            "degree mismatch for {} row {}: naive {} vs unnest {}",
            sql,
            k,
            d,
            g
        );
    }
    // The nested-loop baseline runs every shape that has an unnested plan
    // (chains included) and refuses the naive-fallback shapes.
    if unnest.plan_label != "naive-fallback" {
        let nl = engine
            .run_sql(sql, EvalStrategy::NestedLoop)
            .map_err(|e| TestCaseError::fail(format!("nested-loop failed: {e}")))?;
        let got = degrees(&nl.answer);
        prop_assert_eq!(got.len(), reference.len(), "NL row count mismatch for {}", sql);
        for (k, d) in &reference {
            let g = got.get(k).ok_or_else(|| {
                TestCaseError::fail(format!("nested-loop missing row {k} for {sql}"))
            })?;
            prop_assert!((g - d).abs() < 1e-9, "NL degree mismatch for {sql} row {k}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 4.1: type N.
    #[test]
    fn type_n(r in arb_rows(7), s in arb_rows(7)) {
        check_equivalence(
            "SELECT R.X FROM R WHERE R.Y >= 3 AND R.Y IN \
             (SELECT S.Y FROM S WHERE S.U <= 8)",
            &r, &s, &[],
        )?;
    }

    /// Theorem 4.2: type J.
    #[test]
    fn type_j(r in arb_rows(7), s in arb_rows(7)) {
        check_equivalence(
            "SELECT R.X FROM R WHERE R.Y IN \
             (SELECT S.Y FROM S WHERE S.U <= 9 AND S.X = R.U)",
            &r, &s, &[],
        )?;
    }

    /// Theorem 5.1: type JX (NOT IN with correlation).
    #[test]
    fn type_jx(r in arb_rows(7), s in arb_rows(7)) {
        check_equivalence(
            "SELECT R.X FROM R WHERE R.Y NOT IN \
             (SELECT S.Y FROM S WHERE S.X = R.U)",
            &r, &s, &[],
        )?;
    }

    /// Section 5's simpler variant: uncorrelated NOT IN.
    #[test]
    fn type_nx(r in arb_rows(7), s in arb_rows(7)) {
        check_equivalence(
            "SELECT R.X FROM R WHERE R.Y >= 2 AND R.Y NOT IN \
             (SELECT S.Y FROM S WHERE S.U >= 4)",
            &r, &s, &[],
        )?;
    }

    /// Theorem 6.1: type JA for every aggregate function and several op1.
    #[test]
    fn type_ja(
        r in arb_rows(6),
        s in arb_rows(6),
        agg_idx in 0usize..5,
        op_idx in 0usize..4,
    ) {
        let agg = ["COUNT", "SUM", "AVG", "MIN", "MAX"][agg_idx];
        let op = [">", "<", ">=", "="][op_idx];
        let sql = format!(
            "SELECT R.X FROM R WHERE R.Y {op} \
             (SELECT {agg}(S.Y) FROM S WHERE S.X = R.U)"
        );
        check_equivalence(&sql, &r, &s, &[])?;
    }

    /// Type A: uncorrelated aggregate (constant inner block).
    #[test]
    fn type_a(r in arb_rows(6), s in arb_rows(6), agg_idx in 0usize..5) {
        let agg = ["COUNT", "SUM", "AVG", "MIN", "MAX"][agg_idx];
        let sql = format!(
            "SELECT R.X FROM R WHERE R.Y <= (SELECT {agg}(S.Y) FROM S WHERE S.U >= 3)"
        );
        check_equivalence(&sql, &r, &s, &[])?;
    }

    /// Theorem 7.1: type JALL for several comparison operators.
    #[test]
    fn type_jall(r in arb_rows(6), s in arb_rows(6), op_idx in 0usize..4) {
        let op = ["<", "<=", ">", "="][op_idx];
        let sql = format!(
            "SELECT R.X FROM R WHERE R.Y {op} ALL \
             (SELECT S.Y FROM S WHERE S.X = R.U)"
        );
        check_equivalence(&sql, &r, &s, &[])?;
    }

    /// Uncorrelated ALL.
    #[test]
    fn type_all(r in arb_rows(6), s in arb_rows(6)) {
        check_equivalence(
            "SELECT R.X FROM R WHERE R.Y >= ALL (SELECT S.Y FROM S WHERE S.U <= 7)",
            &r, &s, &[],
        )?;
    }

    /// θ SOME unnests like type J with θ in place of equality.
    #[test]
    fn type_jsome(r in arb_rows(6), s in arb_rows(6), op_idx in 0usize..3) {
        let op = ["<", "=", ">="][op_idx];
        let sql = format!(
            "SELECT R.X FROM R WHERE R.Y {op} SOME \
             (SELECT S.Y FROM S WHERE S.X = R.U)"
        );
        check_equivalence(&sql, &r, &s, &[])?;
    }

    /// Theorem 8.1: 3-level chain queries.
    #[test]
    fn chain_3(r in arb_rows(5), s in arb_rows(5), t in arb_rows(5)) {
        check_equivalence(
            "SELECT R.X FROM R WHERE R.Y IN \
             (SELECT S.Y FROM S WHERE S.X = R.U AND S.U IN \
              (SELECT T.Y FROM T WHERE T.X = S.X AND T.U = R.U))",
            &r, &s, &t,
        )?;
    }

    /// Flat 2-table joins (sanity of the merge-join itself).
    #[test]
    fn flat_join(r in arb_rows(8), s in arb_rows(8)) {
        check_equivalence(
            "SELECT R.X, S.X FROM R, S WHERE R.Y = S.Y AND R.U <= S.U",
            &r, &s, &[],
        )?;
    }

    /// WITH thresholds commute with unnesting.
    #[test]
    fn with_threshold(r in arb_rows(6), s in arb_rows(6), z in 0..10u32) {
        let sql = format!(
            "SELECT R.X FROM R WHERE R.Y IN \
             (SELECT S.Y FROM S WHERE S.X = R.U) WITH D > 0.{z}"
        );
        check_equivalence(&sql, &r, &s, &[])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Type JA with a NON-equality correlation (S.V <= R.U): exercises the
    /// scan fallback of the aggregate executor, where T'(u) cannot be
    /// window-scanned (Section 6 only details the equality case).
    #[test]
    fn type_ja_inequality_correlation(
        r in arb_rows(5),
        s in arb_rows(5),
        agg_idx in 0usize..5,
    ) {
        let agg = ["COUNT", "SUM", "AVG", "MIN", "MAX"][agg_idx];
        let sql = format!(
            "SELECT R.X FROM R WHERE R.Y >= (SELECT {agg}(S.Y) FROM S WHERE S.X <= R.U)"
        );
        check_equivalence(&sql, &r, &s, &[])?;
    }

    /// θ SOME with a NON-equality correlation: no merge driver exists, so the
    /// flat plan falls back to the block nested loop.
    #[test]
    fn type_jsome_inequality_correlation(r in arb_rows(5), s in arb_rows(5)) {
        check_equivalence(
            "SELECT R.X FROM R WHERE R.Y = SOME (SELECT S.Y FROM S WHERE S.X >= R.U)",
            &r, &s, &[],
        )?;
    }

    /// JALL with extra p1 and p2 predicates around the quantifier.
    #[test]
    fn type_jall_with_local_predicates(r in arb_rows(5), s in arb_rows(5)) {
        check_equivalence(
            "SELECT R.X FROM R WHERE R.U >= 1 AND R.Y <= ALL \
             (SELECT S.Y FROM S WHERE S.U <= 9 AND S.X = R.U)",
            &r, &s, &[],
        )?;
    }

    /// JX with extra p1 and p2 predicates (the paper notes the result holds
    /// when either or both exist).
    #[test]
    fn type_jx_with_local_predicates(r in arb_rows(5), s in arb_rows(5)) {
        check_equivalence(
            "SELECT R.X FROM R WHERE R.U <= 10 AND R.Y NOT IN \
             (SELECT S.Y FROM S WHERE S.U >= 2 AND S.X = R.U)",
            &r, &s, &[],
        )?;
    }

    /// Empty outer or inner relations: every boundary definition fires
    /// (empty T(r) ⇒ NOT IN degree μ_R(r), ALL degree 1, COUNT 0, NULL
    /// aggregates).
    #[test]
    fn empty_relation_boundaries(r in arb_rows(4), which in 0usize..4) {
        let empty: Vec<Row> = Vec::new();
        let sql = match which {
            0 => "SELECT R.X FROM R WHERE R.Y NOT IN (SELECT S.Y FROM S WHERE S.X = R.U)",
            1 => "SELECT R.X FROM R WHERE R.Y < ALL (SELECT S.Y FROM S WHERE S.X = R.U)",
            2 => "SELECT R.X FROM R WHERE R.Y >= (SELECT COUNT(S.Y) FROM S WHERE S.X = R.U)",
            _ => "SELECT R.X FROM R WHERE R.Y > (SELECT MAX(S.Y) FROM S WHERE S.X = R.U)",
        };
        check_equivalence(sql, &r, &empty, &[])?;
        check_equivalence(sql, &empty, &r, &[])?;
    }

    /// Four-level chains (Theorem 8.1 beyond the paper's 3-block example).
    #[test]
    fn chain_4(r in arb_rows(4), s in arb_rows(4), t in arb_rows(4)) {
        // Reuse T's rows for the fourth level via a distinct binding of the
        // same stored relation name is disallowed; use all three tables and
        // close the chain on T with a local predicate instead.
        check_equivalence(
            "SELECT R.X FROM R WHERE R.Y IN \
             (SELECT S.Y FROM S WHERE S.X = R.U AND S.U IN \
              (SELECT T.Y FROM T WHERE T.X = S.X AND T.U >= 2))",
            &r, &s, &t,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Similarity predicates (`X ~ Y WITHIN t`, the non-binary θ of
    /// Section 2) evaluate identically under naive and unnested plans,
    /// as local filters and as join residuals.
    #[test]
    fn similarity_predicates(r in arb_rows(6), s in arb_rows(6), tol in 1..6u32) {
        let sql = format!(
            "SELECT R.X FROM R WHERE R.Y ~ 5 WITHIN {tol} AND R.U IN \
             (SELECT S.U FROM S WHERE S.X ~ R.X WITHIN {tol})"
        );
        check_equivalence(&sql, &r, &s, &[])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// EXISTS / NOT EXISTS unnesting (the paper's Section 7 remark that the
    /// EXIST quantifier "can be unnested similarly").
    #[test]
    fn exists_and_not_exists(r in arb_rows(6), s in arb_rows(6), negated in proptest::bool::ANY) {
        let kw = if negated { "NOT EXISTS" } else { "EXISTS" };
        let sql = format!(
            "SELECT R.X FROM R WHERE R.U >= 1 AND {kw} \
             (SELECT S.Y FROM S WHERE S.U <= 9 AND S.X = R.U)"
        );
        check_equivalence(&sql, &r, &s, &[])?;
        // Uncorrelated variant: the sub-query is a constant condition.
        let sql = format!("SELECT R.X FROM R WHERE {kw} (SELECT S.Y FROM S WHERE S.U >= 5)");
        check_equivalence(&sql, &r, &s, &[])?;
    }
}

/// Like [`check_equivalence`] but runs the unnested plan with the
/// sampling-based partitioned join instead of the merge-join.
fn check_partitioned(sql: &str, r: &[Row], s: &[Row]) -> Result<(), TestCaseError> {
    use fuzzy_engine::exec::{ExecConfig, JoinMethod};
    let disk = SimDisk::with_default_page_size();
    let catalog = build_catalog(&disk, r, s, &[]);
    let naive = Engine::over(catalog.clone().into(), &disk)
        .run_sql(sql, EvalStrategy::Naive)
        .map_err(|e| TestCaseError::fail(format!("naive failed: {e}")))?;
    let part = Engine::over(catalog.clone().into(), &disk)
        .with_config(ExecConfig {
            buffer_pages: 4, // force several partitions even on tiny inputs
            sort_pages: 4,
            join_method: JoinMethod::Partitioned,
            ..Default::default()
        })
        .run_sql(sql, EvalStrategy::Unnest)
        .map_err(|e| TestCaseError::fail(format!("partitioned failed: {e}")))?;
    let reference = degrees(&naive.answer);
    let got = degrees(&part.answer);
    prop_assert_eq!(got.len(), reference.len(), "partitioned row count mismatch for {}", sql);
    for (k, d) in &reference {
        let g = got
            .get(k)
            .ok_or_else(|| TestCaseError::fail(format!("partitioned missing row {k}")))?;
        prop_assert!((g - d).abs() < 1e-9, "partitioned degree mismatch for {sql} row {k}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The sampling-based partitioned join produces the same fuzzy relations
    /// as the merge-join and the naive reference for types N and J, including
    /// under WITH thresholds (replicated pairs are absorbed by fuzzy OR).
    #[test]
    fn partitioned_join_equivalence(r in arb_rows(8), s in arb_rows(8), z in 0..9u32) {
        check_partitioned(
            "SELECT R.X FROM R WHERE R.Y IN (SELECT S.Y FROM S WHERE S.X = R.U)",
            &r, &s,
        )?;
        let sql = format!(
            "SELECT R.X FROM R WHERE R.Y IN (SELECT S.Y FROM S) WITH D > 0.{z}"
        );
        check_partitioned(&sql, &r, &s)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The Section 2.3 intermediate-relation method agrees with everything
    /// else on every two-level type.
    #[test]
    fn materialized_nested_loop_equivalence(r in arb_rows(6), s in arb_rows(6), which in 0usize..4) {
        let sql = match which {
            0 => "SELECT R.X FROM R WHERE R.U >= 2 AND R.Y IN (SELECT S.Y FROM S WHERE S.U <= 8)",
            1 => "SELECT R.X FROM R WHERE R.Y NOT IN (SELECT S.Y FROM S WHERE S.U >= 3 AND S.X = R.U)",
            2 => "SELECT R.X FROM R WHERE R.Y <= (SELECT MAX(S.Y) FROM S WHERE S.U <= 7 AND S.X = R.U)",
            _ => "SELECT R.X FROM R WHERE R.Y < ALL (SELECT S.Y FROM S WHERE S.U >= 2 AND S.X = R.U)",
        };
        let disk = SimDisk::with_default_page_size();
        let catalog = build_catalog(&disk, &r, &s, &[]);
        let engine = Engine::over(catalog.clone().into(), &disk);
        let naive = engine.run_sql(sql, EvalStrategy::Naive)
            .map_err(|e| TestCaseError::fail(format!("naive: {e}")))?;
        let mat = engine.run_sql(sql, EvalStrategy::MaterializedNestedLoop)
            .map_err(|e| TestCaseError::fail(format!("materialized: {e}")))?;
        let reference = degrees(&naive.answer);
        let got = degrees(&mat.answer);
        prop_assert_eq!(got.len(), reference.len(), "row count mismatch for {}", sql);
        for (k, d) in &reference {
            let g = got.get(k)
                .ok_or_else(|| TestCaseError::fail(format!("materialized missing {k}")))?;
            prop_assert!((g - d).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chains executed with the partitioned join at every step still agree
    /// with the naive reference (each intermediate result re-partitions).
    #[test]
    fn partitioned_join_chains(r in arb_rows(6), s in arb_rows(6), t in arb_rows(6)) {
        use fuzzy_engine::exec::{ExecConfig, JoinMethod};
        let sql = "SELECT R.X FROM R WHERE R.Y IN \
                   (SELECT S.Y FROM S WHERE S.X = R.U AND S.U IN \
                    (SELECT T.Y FROM T WHERE T.X = S.X))";
        let disk = SimDisk::with_default_page_size();
        let catalog = build_catalog(&disk, &r, &s, &t);
        let naive = Engine::over(catalog.clone().into(), &disk)
            .run_sql(sql, EvalStrategy::Naive)
            .map_err(|e| TestCaseError::fail(format!("naive: {e}")))?;
        let part = Engine::over(catalog.clone().into(), &disk)
            .with_config(ExecConfig {
                buffer_pages: 4,
                sort_pages: 4,
                join_method: JoinMethod::Partitioned,
                ..Default::default()
            })
            .run_sql(sql, EvalStrategy::Unnest)
            .map_err(|e| TestCaseError::fail(format!("partitioned: {e}")))?;
        let reference = degrees(&naive.answer);
        let got = degrees(&part.answer);
        prop_assert_eq!(got.len(), reference.len());
        for (k, d) in &reference {
            let g = got.get(k).ok_or_else(|| TestCaseError::fail(format!("missing {k}")))?;
            prop_assert!((g - d).abs() < 1e-9);
        }
    }
}

/// Rows over a three-point grid: most values repeat, so after the merge
/// sort consecutive outer tuples often project equal answer rows.
fn arb_repeating_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let value = || {
        prop_oneof![
            (0..3i32).prop_map(|v| Value::number(v as f64)),
            (0..3i32).prop_map(|a| {
                let a = a as f64;
                Value::fuzzy(Trapezoid::triangular(a, a + 1.0, a + 2.0).expect("ordered"))
            }),
        ]
    };
    prop::collection::vec(
        (value(), value(), value(), arb_degree()).prop_map(|(x, y, u, d)| Row { x, y, u, d }),
        0..max,
    )
}

/// Checks the unnested plan at 1, 2 and 4 threads against the literal naive
/// evaluator (`Strategy::Naive`, which runs `NaiveEvaluator::new`).
fn check_threads(sql: &str, r: &[Row], s: &[Row]) -> Result<(), TestCaseError> {
    use fuzzy_engine::exec::ExecConfig;
    let disk = SimDisk::with_default_page_size();
    let catalog = build_catalog(&disk, r, s, &[]);
    let naive = Engine::over(catalog.clone().into(), &disk)
        .run_sql(sql, EvalStrategy::Naive)
        .map_err(|e| TestCaseError::fail(format!("naive failed: {e}")))?;
    let reference = degrees(&naive.answer);
    for threads in [1usize, 2, 4] {
        let unnest = Engine::over(catalog.clone().into(), &disk)
            .with_config(ExecConfig { threads, ..Default::default() })
            .run_sql(sql, EvalStrategy::Unnest)
            .map_err(|e| TestCaseError::fail(format!("unnest failed: {e}")))?;
        let got = degrees(&unnest.answer);
        prop_assert_eq!(got.len(), reference.len(), "{} threads: row count for {}", threads, sql);
        for (k, d) in &reference {
            let g = got.get(k).ok_or_else(|| {
                TestCaseError::fail(format!("{threads} threads: missing row {k} for {sql}"))
            })?;
            prop_assert!((g - d).abs() < 1e-9, "{threads} threads: degree of {k} for {sql}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The answer sink folds a row equal to the one before it, and the
    /// merge-join stops an outer tuple's window once a pair reaches its
    /// degree. Both are exact even when consecutive outer tuples project the
    /// same values: a flat join projecting its (repeating) join column, and
    /// a type J query projecting a non-key outer column. A join that also
    /// projects an inner column evaluates every pair.
    #[test]
    fn folded_rows_across_outer_tuples(
        r in arb_repeating_rows(8),
        s in arb_repeating_rows(8),
        z in 0..6u32,
    ) {
        check_threads("SELECT R.X FROM R, S WHERE R.X = S.X", &r, &s)?;
        check_threads("SELECT R.X, S.U FROM R, S WHERE R.X = S.X", &r, &s)?;
        check_threads(
            "SELECT R.U FROM R WHERE R.Y IN (SELECT S.Y FROM S WHERE S.X = R.X)",
            &r, &s,
        )?;
        let sql = format!("SELECT R.U FROM R, S WHERE R.Y = S.Y WITH D > 0.{z}");
        check_threads(&sql, &r, &s)?;
    }
}

/// A value whose defuzzified centre (the core's midpoint) is 3 or 6: the
/// crisp centre itself, or one of several distinct trapezoids whose cores
/// share it. MIN and MAX over such values tie on the defuzzified key and
/// are ordered by the breakpoint tie-break alone.
fn arb_centre_tie() -> impl Strategy<Value = Value> {
    let centre = || prop_oneof![Just(3.0), Just(6.0)];
    prop_oneof![
        centre().prop_map(Value::number),
        (centre(), 0..3i32, 0..3i32, 1..3i32).prop_map(|(c, h, w1, w2)| {
            let (h, w1, w2) = (f64::from(h) * 0.5, f64::from(w1), f64::from(w2));
            Value::fuzzy(Trapezoid::new(c - h - w1, c - h, c + h, c + h + w2).expect("ordered"))
        }),
    ]
}

/// Rows whose `Y` is an [`arb_centre_tie`] value and whose `X` and `U` lie on
/// a three-point grid, so correlated groups share members.
fn arb_tie_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let grid = || (0..3i32).prop_map(|v| Value::number(f64::from(v)));
    prop::collection::vec(
        (grid(), arb_centre_tie(), grid(), arb_degree()).prop_map(|(x, y, u, d)| Row {
            x,
            y,
            u,
            d,
        }),
        0..max,
    )
}

/// Runs `sql` under `Strategy::Unnest` and `Strategy::NestedLoop` at 1 and 2
/// threads and checks each answer against the literal naive evaluator: the
/// same rows at bit-equal degrees. Under `Strategy::Unnest` the aggregate
/// must run as `operator`.
fn check_aggregate_strategies(
    sql: &str,
    operator: &str,
    r: &[Row],
    s: &[Row],
) -> Result<(), TestCaseError> {
    use fuzzy_engine::exec::ExecConfig;
    let disk = SimDisk::with_default_page_size();
    let catalog = build_catalog(&disk, r, s, &[]);
    let naive = Engine::over(catalog.clone().into(), &disk)
        .run_sql(sql, EvalStrategy::Naive)
        .map_err(|e| TestCaseError::fail(format!("naive failed: {e}")))?;
    let reference = degrees(&naive.answer);
    for strategy in [EvalStrategy::Unnest, EvalStrategy::NestedLoop] {
        for threads in [1usize, 2] {
            let out = Engine::over(catalog.clone().into(), &disk)
                .with_config(ExecConfig { threads, ..Default::default() })
                .run_sql(sql, strategy)
                .map_err(|e| TestCaseError::fail(format!("{strategy:?} failed: {e}")))?;
            if strategy == EvalStrategy::Unnest {
                let ran = out.metrics.ops().iter().any(|n| n.label.starts_with(operator));
                prop_assert!(ran, "{} does not run {}", sql, operator);
            }
            prop_assert_eq!(
                degrees(&out.answer),
                reference.clone(),
                "{:?} at {} threads: {}",
                strategy,
                threads,
                sql
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// MIN and MAX keep a running extreme instead of building T(r); over
    /// groups full of defuzzified-centre ties (distinct trapezoids sharing
    /// a core centre, and the crisp centre) they pick what the naive
    /// evaluator's set picks, in type JA (`agg-merge`), type A
    /// (`agg-const`) and under a non-equality correlation (`agg-scan`).
    #[test]
    fn min_max_centre_ties(
        r in arb_tie_rows(7),
        s in arb_tie_rows(7),
        max in proptest::bool::ANY,
        op_idx in 0usize..3,
    ) {
        let agg = if max { "MAX" } else { "MIN" };
        let op = ["=", "<", ">="][op_idx];
        for (corr, operator) in [
            ("S.X = R.U", "agg-merge"),
            ("S.U >= 1", "agg-const"),
            ("S.X <= R.U", "agg-scan"),
        ] {
            let sql = format!(
                "SELECT R.ID FROM R WHERE R.Y {op} (SELECT {agg}(S.Y) FROM S WHERE {corr})"
            );
            check_aggregate_strategies(&sql, operator, &r, &s)?;
        }
    }
}
