//! Tests of the unnesting transformer itself: each query type must produce
//! the plan shape the corresponding paper section prescribes.

use fuzzy_core::CmpOp;
use fuzzy_engine::plan::{AntiKind, UnnestPlan};
use fuzzy_engine::{build_plan, EngineError, ExecConfig, Strategy, VerifiedPlan};
use fuzzy_rel::{AttrType, Catalog, Schema, StoredTable};
use fuzzy_sql::parse;
use fuzzy_storage::SimDisk;

fn catalog() -> Catalog {
    let disk = SimDisk::with_default_page_size();
    let mut c = Catalog::new();
    for name in ["R", "S", "T"] {
        c.register(StoredTable::create(
            &disk,
            name,
            Schema::of(&[
                ("ID", AttrType::Number),
                ("X", AttrType::Number),
                ("Y", AttrType::Number),
                ("U", AttrType::Number),
                ("NAME", AttrType::Text),
            ])
            .with_key("ID"),
        ));
    }
    c
}

fn plan(sql: &str) -> UnnestPlan {
    build_plan(&parse(sql).unwrap(), &catalog()).unwrap()
}

#[test]
fn type_n_becomes_two_table_flat_join() {
    let p = plan("SELECT R.X FROM R WHERE R.Y IN (SELECT S.Y FROM S WHERE S.U <= 3)");
    match p {
        UnnestPlan::Flat(f) => {
            assert_eq!(f.tables.len(), 2);
            // p2 folded into the inner table's local predicates.
            assert_eq!(f.tables[1].local_preds.len(), 1);
            // One join predicate: the IN linkage R.Y = S.Y.
            assert_eq!(f.join_preds.len(), 1);
            assert_eq!(f.join_preds[0].op, CmpOp::Eq);
        }
        other => panic!("expected flat, got {other:?}"),
    }
}

#[test]
fn type_j_adds_the_correlation_join() {
    let p = plan("SELECT R.X FROM R WHERE R.Y IN (SELECT S.Y FROM S WHERE S.U = R.U)");
    match p {
        UnnestPlan::Flat(f) => {
            assert_eq!(f.join_preds.len(), 2, "IN link + correlation");
        }
        other => panic!("expected flat, got {other:?}"),
    }
}

#[test]
fn jx_becomes_anti_exclusion_with_window() {
    let sql = "SELECT R.X FROM R WHERE R.Y NOT IN (SELECT S.Y FROM S WHERE S.U = R.U)";
    let merges = label(sql, Strategy::Unnest).ends_with("[merge]");
    assert!(merges, "correlated JX merges on an equality");
    match plan(sql) {
        UnnestPlan::Anti(a) => {
            assert_eq!(a.kind, AntiKind::Exclusion);
            assert_eq!(a.pair_preds.len(), 2, "correlation + the NOT IN pair");
        }
        other => panic!("expected anti, got {other:?}"),
    }
}

#[test]
fn uncorrelated_nx_uses_scan_window_on_the_in_pair() {
    let sql = "SELECT R.X FROM R WHERE R.Y NOT IN (SELECT S.Y FROM S)";
    match plan(sql) {
        UnnestPlan::Anti(a) => {
            assert_eq!(a.kind, AntiKind::Exclusion);
            // The NOT IN pair itself is an equality, so it can drive a merge.
            assert!(label(sql, Strategy::Unnest).ends_with("[merge]"));
        }
        other => panic!("expected anti, got {other:?}"),
    }
}

#[test]
fn jall_becomes_anti_all_with_quantified_pair_in_kind() {
    let sql = "SELECT R.X FROM R WHERE R.Y < ALL (SELECT S.Y FROM S WHERE S.U = R.U)";
    match plan(sql) {
        UnnestPlan::Anti(a) => {
            match a.kind {
                AntiKind::All { op, .. } => assert_eq!(op, CmpOp::Lt),
                other => panic!("expected All kind, got {other:?}"),
            }
            assert!(label(sql, Strategy::Unnest).ends_with(" merge]"));
            assert_eq!(a.pair_preds.len(), 1, "only the correlation");
        }
        other => panic!("expected anti, got {other:?}"),
    }
}

#[test]
fn uncorrelated_all_has_no_window() {
    let sql = "SELECT R.X FROM R WHERE R.Y < ALL (SELECT S.Y FROM S)";
    match plan(sql) {
        UnnestPlan::Anti(_) => assert!(label(sql, Strategy::Unnest).ends_with(" scan]")),
        other => panic!("expected anti, got {other:?}"),
    }
}

#[test]
fn ja_plan_carries_aggregate_and_correlation() {
    let p = plan("SELECT R.X FROM R WHERE R.Y > (SELECT MAX(S.Y) FROM S WHERE S.U = R.U)");
    match p {
        UnnestPlan::Agg(a) => {
            assert_eq!(a.agg.0, fuzzy_sql::AggFunc::Max);
            let (u, op2, v) = a.corr.expect("correlated");
            assert_eq!(op2, CmpOp::Eq);
            assert_eq!(u.binding, "R");
            assert_eq!(v.binding, "S");
            assert_eq!(a.compare.1, CmpOp::Gt);
        }
        other => panic!("expected agg, got {other:?}"),
    }
}

#[test]
fn ja_correlation_direction_is_normalized() {
    // Written as R.U <= S.U: stored as S.U >= R.U (inner op outer).
    let p = plan("SELECT R.X FROM R WHERE R.Y > (SELECT SUM(S.Y) FROM S WHERE R.U <= S.U)");
    match p {
        UnnestPlan::Agg(a) => {
            let (_, op2, _) = a.corr.expect("correlated");
            assert_eq!(op2, CmpOp::Ge);
        }
        other => panic!("expected agg, got {other:?}"),
    }
}

#[test]
fn type_a_has_no_correlation() {
    let p = plan("SELECT R.X FROM R WHERE R.Y > (SELECT AVG(S.Y) FROM S)");
    match p {
        UnnestPlan::Agg(a) => assert!(a.corr.is_none()),
        other => panic!("expected agg, got {other:?}"),
    }
}

#[test]
fn chain_3_builds_three_table_flat_join() {
    let p = plan(
        "SELECT R.X FROM R WHERE R.Y IN \
         (SELECT S.Y FROM S WHERE S.U = R.U AND S.X IN \
          (SELECT T.X FROM T WHERE T.U = S.U AND T.Y = R.Y))",
    );
    match p {
        UnnestPlan::Flat(f) => {
            assert_eq!(f.tables.len(), 3);
            // 2 IN links + 3 correlation predicates.
            assert_eq!(f.join_preds.len(), 5);
        }
        other => panic!("expected flat, got {other:?}"),
    }
}

#[test]
fn general_shapes_are_rejected() {
    let c = catalog();
    for sql in [
        // Two sub-queries in one block.
        "SELECT R.X FROM R WHERE R.Y IN (SELECT S.Y FROM S) AND R.U IN (SELECT T.U FROM T)",
        // NOT IN below the top level.
        "SELECT R.X FROM R WHERE R.Y IN (SELECT S.Y FROM S WHERE S.U NOT IN (SELECT T.U FROM T))",
    ] {
        let err = build_plan(&parse(sql).unwrap(), &c).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)), "{sql}");
    }
}

#[test]
fn reused_bindings_across_levels_are_rejected() {
    let c = catalog();
    let err = build_plan(&parse("SELECT R.X FROM R WHERE R.Y IN (SELECT R.Y FROM R)").unwrap(), &c)
        .unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)));
}

#[test]
fn unknown_tables_and_columns_error_cleanly() {
    let c = catalog();
    let err = build_plan(&parse("SELECT Z.X FROM Z").unwrap(), &c).unwrap_err();
    assert!(err.to_string().contains("unknown table"));
    let err = build_plan(&parse("SELECT R.NOPE FROM R").unwrap(), &c).unwrap_err();
    assert!(err.to_string().contains("NOPE"));
}

/// The label of the verified plan `strategy` runs for `sql`.
fn label(sql: &str, strategy: Strategy) -> String {
    let config = ExecConfig::default();
    VerifiedPlan::new(&plan(sql), strategy, &config, &catalog(), None).unwrap().label().to_string()
}

#[test]
fn plan_labels_are_descriptive() {
    let jx = "SELECT R.X FROM R WHERE R.Y NOT IN (SELECT S.Y FROM S WHERE S.U = R.U)";
    assert!(label("SELECT R.X FROM R", Strategy::Unnest).contains("flat-join[1"));
    assert!(label(jx, Strategy::Unnest).contains("anti-exclusion[merge]"));
    assert!(label("SELECT R.X FROM R WHERE R.Y < ALL (SELECT S.Y FROM S)", Strategy::Unnest)
        .contains("scan"));
    assert!(label(
        "SELECT R.X FROM R WHERE R.Y > (SELECT COUNT(S.Y) FROM S WHERE S.U = R.U)",
        Strategy::Unnest
    )
    .contains("COUNT"));
    // The baselines run the same anti plan as a nested loop, and say so.
    assert_eq!(label(jx, Strategy::NestedLoop), "nested-loop:anti-exclusion[nested-loop]");
}

#[test]
fn exists_unnests_to_flat_and_not_exists_to_anti() {
    let p = plan("SELECT R.X FROM R WHERE EXISTS (SELECT S.Y FROM S WHERE S.U = R.U)");
    assert!(matches!(p, UnnestPlan::Flat(_)), "{p:?}");
    let sql = "SELECT R.X FROM R WHERE NOT EXISTS (SELECT S.Y FROM S WHERE S.U = R.U)";
    match plan(sql) {
        UnnestPlan::Anti(a) => {
            assert_eq!(a.kind, AntiKind::Exclusion);
            assert!(label(sql, Strategy::Unnest).ends_with("[merge]"));
        }
        other => panic!("expected anti, got {other:?}"),
    }
}

#[test]
fn join_reordering_preserves_answers_on_lopsided_tables() {
    use fuzzy_core::Value;
    use fuzzy_engine::exec::ExecConfig;
    use fuzzy_engine::{Engine, Strategy};
    use fuzzy_rel::Tuple;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let disk = SimDisk::with_default_page_size();
    let mut catalog = Catalog::new();
    let schema = || {
        Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number), ("Y", AttrType::Number)])
    };
    let mut rng = StdRng::seed_from_u64(17);
    for (name, n) in [("A", 400usize), ("B", 40), ("C", 12)] {
        let t = StoredTable::create(&disk, name, schema());
        t.load((0..n).map(|i| {
            Tuple::full(vec![
                Value::number(i as f64),
                Value::number(rng.gen_range(0..15) as f64),
                Value::number(rng.gen_range(0..15) as f64),
            ])
        }))
        .unwrap();
        catalog.register(t);
    }
    let sql = "SELECT A.ID FROM A WHERE A.X IN \
               (SELECT B.X FROM B WHERE B.Y IN \
                (SELECT C.Y FROM C WHERE C.X = B.X))";
    let mut answers = Vec::new();
    for reorder in [false, true] {
        let engine = Engine::over(catalog.clone().into(), &disk).with_config(ExecConfig {
            buffer_pages: 32,
            sort_pages: 32,
            reorder_joins: reorder,
            ..Default::default()
        });
        answers.push(engine.run_sql(sql, Strategy::Unnest).unwrap().answer.canonicalized());
    }
    assert_eq!(answers[0], answers[1], "reordering changed the answer");
    assert!(!answers[0].is_empty(), "workload should produce matches");
    // And both agree with the naive reference.
    let engine = Engine::over(catalog.clone().into(), &disk);
    let naive = engine.run_sql(sql, Strategy::Naive).unwrap().answer.canonicalized();
    assert_eq!(answers[0], naive);
}

#[test]
fn threshold_pushdown_shrinks_windows_without_changing_answers() {
    use fuzzy_core::{Trapezoid, Value};
    use fuzzy_engine::exec::ExecConfig;
    use fuzzy_engine::{Engine, Strategy};
    use fuzzy_rel::Tuple;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Wide trapezoids whose supports overlap heavily but whose cores are
    // narrow: high thresholds prune most window pairs.
    let disk = SimDisk::with_default_page_size();
    let mut catalog = Catalog::new();
    let mut rng = StdRng::seed_from_u64(23);
    for name in ["R", "S"] {
        let t = StoredTable::create(
            &disk,
            name,
            Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number)]),
        );
        t.load((0..600).map(|i| {
            let c = rng.gen_range(0.0..60.0);
            Tuple::full(vec![
                Value::number(i as f64),
                Value::fuzzy(Trapezoid::new(c - 8.0, c - 0.5, c + 0.5, c + 8.0).unwrap()),
            ])
        }))
        .unwrap();
        catalog.register(t);
    }
    let sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) WITH D > 0.8";
    let mut outcomes = Vec::new();
    for pushdown in [false, true] {
        let engine = Engine::over(catalog.clone().into(), &disk)
            .with_config(ExecConfig { threshold_pushdown: pushdown, ..Default::default() });
        outcomes.push(engine.run_sql(sql, Strategy::Unnest).unwrap());
    }
    assert_eq!(
        outcomes[0].answer.canonicalized(),
        outcomes[1].answer.canonicalized(),
        "push-down changed the answer"
    );
    assert!(
        outcomes[1].metrics.totals().pairs_examined * 2
            < outcomes[0].metrics.totals().pairs_examined,
        "push-down should prune most pairs: {} vs {}",
        outcomes[1].metrics.totals().pairs_examined,
        outcomes[0].metrics.totals().pairs_examined
    );
    // And both agree with the naive reference.
    let naive = Engine::over(catalog.clone().into(), &disk).run_sql(sql, Strategy::Naive).unwrap();
    assert_eq!(outcomes[1].answer.canonicalized(), naive.answer.canonicalized());
}

#[test]
fn statistics_aware_ordering_beats_the_blind_heuristic() {
    use fuzzy_core::Value;
    use fuzzy_engine::exec::ExecConfig;
    use fuzzy_engine::{Engine, Executor, Strategy, VerifiedPlan};
    use fuzzy_rel::Tuple;

    // Three tables; B is nominally mid-sized but its local predicate
    // (B.Y <= 5 over values 0..1000) keeps almost nothing — only a
    // histogram can see that. A is large with a weak predicate.
    let disk = SimDisk::with_default_page_size();
    let mut catalog = Catalog::new();
    let schema = || {
        Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number), ("Y", AttrType::Number)])
    };
    for (name, n, ymax) in [("A", 3000usize, 10.0f64), ("B", 1500, 1000.0), ("C", 200, 10.0)] {
        let t = StoredTable::create(&disk, name, schema());
        t.load((0..n).map(|i| {
            Tuple::full(vec![
                Value::number(i as f64),
                Value::number((i % 40) as f64),
                Value::number((i as f64) * ymax / n as f64),
            ])
        }))
        .unwrap();
        catalog.register(t);
    }
    let sql = "SELECT A.ID FROM A WHERE A.Y <= 9 AND A.X IN \
               (SELECT B.X FROM B WHERE B.Y <= 5 AND B.X IN \
                (SELECT C.X FROM C WHERE C.Y <= 9))";
    let config = ExecConfig { buffer_pages: 16, sort_pages: 16, ..Default::default() };
    // Blind: the plan lowered without statistics, driven directly.
    let plan = build_plan(&parse(sql).unwrap(), &catalog).unwrap();
    let verified = VerifiedPlan::new(&plan, Strategy::Unnest, &config, &catalog, None).unwrap();
    let (blind_answer, blind_metrics) =
        Executor::new(&disk, config).run(&verified, &catalog).unwrap();
    let blind_pairs = blind_metrics.totals().pairs_examined;
    // Informed: an engine lowers with its context's histograms. Warm them so
    // the comparison isn't polluted by ANALYZE scans.
    let engine = Engine::over(catalog.into(), &disk).with_config(config);
    let _ = engine.run_sql(sql, Strategy::Unnest).unwrap();
    let informed = engine.run_sql(sql, Strategy::Unnest).unwrap();
    assert_eq!(
        blind_answer.canonicalized(),
        informed.answer.canonicalized(),
        "statistics must never change answers"
    );
    assert!(
        informed.metrics.totals().pairs_examined <= blind_pairs,
        "histograms should not worsen the order: {} vs {}",
        informed.metrics.totals().pairs_examined,
        blind_pairs
    );
}
