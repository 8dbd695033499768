//! Integration tests for the static plan verifier (`fuzzy_engine::verify`).
//!
//! Positive corpus: one query of every class in the paper's catalogue, at
//! two catalog scales — every plan the engine would run (join reorders
//! included) must verify cleanly, and must execute identically to the naive
//! reference under every thread count (`Engine::plan_for` verifies each plan
//! before it runs, in every build profile, so a violation fails the run).
//!
//! Negative cases: injected failures must be rejected with their exact
//! documented rule ids (`V-PROP-SORT`, `V-THRESH-WIDEN`, `R-T4.1-INDEP`).

use fuzzy_db::core::{Degree, Value};
use fuzzy_db::engine::plan::{PlanCol, UnnestPlan};
use fuzzy_db::engine::{
    build_plan, check_threshold, verify_plan, Engine, ExecConfig, OpKind, Outline, PhysOp, Prop,
    QueryOutcome, RewriteRule, Strategy,
};
use fuzzy_db::rel::{AttrType, Schema, Tuple};
use fuzzy_db::sql::Threshold;
use fuzzy_db::Database;

/// The deterministic three-table fixture of the golden suite, scaled: R has
/// `8 * scale` tuples, S `6 * scale`, T `4 * scale`, all with the same
/// (ID, X, V) numeric schema so every query class can be expressed.
fn fixture(scale: usize) -> Database {
    let db = Database::with_paper_vocabulary();
    for (name, base) in [("R", 8usize), ("S", 6), ("T", 4)] {
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
            (0..base * scale).map(|i| {
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

/// One query per class (the golden suite's corpus). The last entry is the
/// general fallback: no unnested plan exists, so there is nothing to verify.
const CORPUS: &[(&str, &str)] = &[
    ("flat", "SELECT R.ID FROM R, S WHERE R.X = S.X WITH D > 0.3"),
    ("type_n", "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)"),
    ("type_j", "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)"),
    ("type_some", "SELECT R.ID FROM R WHERE R.X = SOME (SELECT S.X FROM S WHERE S.V = R.V)"),
    ("type_nx", "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)"),
    ("type_jx", "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.V = R.V)"),
    ("type_a", "SELECT R.ID FROM R WHERE R.V > (SELECT AVG(S.V) FROM S)"),
    ("type_ja", "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)"),
    ("type_all", "SELECT R.ID FROM R WHERE R.V > ALL (SELECT T.V FROM T)"),
    (
        "chain3",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.X IN (SELECT T.X FROM T))",
    ),
    (
        "general_fallback",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) AND R.V IN (SELECT T.V FROM T)",
    ),
];

#[test]
fn corpus_verifies_cleanly_at_both_scales() {
    for scale in [1usize, 4] {
        let db = fixture(scale);
        let engine = Engine::over(db.catalog(), db.disk());
        for (name, sql) in CORPUS {
            let report = engine.verify(sql).unwrap();
            if *name == "general_fallback" {
                assert!(report.is_none(), "{name} should have no unnested plan to verify");
                continue;
            }
            let report = report.unwrap_or_else(|| panic!("{name} fell back to naive"));
            assert!(
                report.ok(),
                "scale {scale}, {name}: plan {} failed verification: {:?}",
                report.plan_label,
                report.violations
            );
            assert!(report.checks > 0, "{name}: no checks ran");
        }
    }
}

#[test]
fn corpus_runs_match_naive_under_every_thread_count() {
    let db = fixture(1);
    for threads in [1usize, 2, 4, 8] {
        let config = ExecConfig { threads, ..ExecConfig::default() };
        let engine = Engine::over(db.catalog(), db.disk()).with_config(config);
        for (name, sql) in CORPUS {
            // `Engine::plan_for` verifies each plan before it runs, so a
            // corpus violation would fail here loudly.
            let unnest = engine.run_sql(sql, Strategy::Unnest).unwrap();
            let naive = engine.run_sql(sql, Strategy::Naive).unwrap();
            assert_eq!(
                unnest.answer.canonicalized(),
                naive.answer.canonicalized(),
                "{name} with {threads} thread(s): unnest != naive"
            );
        }
    }
}

/// Runs `sql` under `strategy`, or `None` where a baseline refuses the
/// general fallback's shape.
fn run_corpus(engine: &Engine, name: &str, sql: &str, strategy: Strategy) -> Option<QueryOutcome> {
    match engine.run_sql(sql, strategy) {
        Err(fuzzy_db::EngineError::Unsupported(_))
            if name == "general_fallback" && strategy != Strategy::Unnest =>
        {
            None
        }
        other => Some(other.unwrap()),
    }
}

const PHYSICAL: [Strategy; 3] =
    [Strategy::Unnest, Strategy::NestedLoop, Strategy::MaterializedNestedLoop];

#[test]
fn standalone_engine_verifies_each_plan_once_then_hits() {
    // The engine's planning step is the single verification site for every
    // physical strategy, and every engine plans through a plan cache — a
    // standalone engine through its private one. The first run of a
    // statement misses and verifies the operator tree it runs exactly once;
    // the repeat hits and verifies nothing. The naive fallback has no plan
    // to verify, and the baselines refuse its shape.
    let db = fixture(1);
    let engine = Engine::over(db.catalog(), db.disk());
    for strategy in PHYSICAL {
        for (name, sql) in CORPUS {
            let Some(first) = run_corpus(&engine, name, sql, strategy) else { continue };
            let expected = if *name == "general_fallback" { 0 } else { 1 };
            assert_eq!(first.serving.cache_hit, Some(false), "{name} under {strategy:?}");
            assert_eq!(
                first.serving.plan_verifications, expected,
                "{name} under {strategy:?} ({})",
                first.plan_label
            );
            let again = engine.run_sql(sql, strategy).unwrap();
            assert_eq!(again.serving.cache_hit, Some(true), "{name} under {strategy:?} again");
            assert_eq!(again.serving.plan_verifications, 0, "{name} under {strategy:?} again");
        }
    }
}

#[test]
fn cache_hit_runs_the_operator_tree_of_the_miss() {
    // The cache holds the verified operator tree itself: a hit drives the
    // same operators, with the same labels, as the miss that built it, and
    // driving it by borrow leaves it unchanged, so the miss and two later
    // hits count exactly the same.
    let db = fixture(1);
    let engine = Engine::over(db.catalog(), db.disk());
    let ops = |out: &QueryOutcome| -> Vec<(OpKind, String)> {
        out.metrics.ops().iter().map(|n| (n.kind, n.label.clone())).collect()
    };
    for strategy in PHYSICAL {
        for (name, sql) in CORPUS {
            let Some(miss) = run_corpus(&engine, name, sql, strategy) else { continue };
            let hit = engine.run_sql(sql, strategy).unwrap();
            assert_eq!(
                (miss.serving.cache_hit, hit.serving.cache_hit),
                (Some(false), Some(true)),
                "{name} under {strategy:?}"
            );
            assert_eq!(ops(&miss), ops(&hit), "{name} under {strategy:?}: operators differ");
            assert_eq!(miss.plan_label, hit.plan_label, "{name} under {strategy:?}");
            assert_eq!(
                miss.answer.canonicalized(),
                hit.answer.canonicalized(),
                "{name} under {strategy:?}"
            );
            let again = engine.run_sql(sql, strategy).unwrap();
            assert_eq!(again.serving.cache_hit, Some(true), "{name} under {strategy:?} again");
            for (run, out) in [("hit", &hit), ("second hit", &again)] {
                assert_eq!(
                    miss.metrics.deterministic(),
                    out.metrics.deterministic(),
                    "{name} under {strategy:?}: the {run} counts differently from the miss"
                );
            }
        }
    }
}

#[test]
fn session_engines_share_one_context_and_standalone_engines_do_not() {
    // A three-way flat join with constant local predicates: lowering it
    // reorders the join by column histograms, each built with one scan on
    // first use and kept in the engine context's statistics.
    let sql = "SELECT R.ID FROM R, S, T WHERE R.X = S.X AND S.V = T.V \
               AND R.V <= 103 AND T.V <= 102";
    let q = fuzzy_db::sql::parse(sql).unwrap();
    let db = fixture(1);
    let plan = |engine: Engine| {
        let before = db.disk().io().reads;
        let (_, info) = engine.plan_for(&q).unwrap();
        (db.disk().io().reads - before, info.cache_hit)
    };
    let (reads, hit) = plan(db.engine());
    assert!(reads > 0, "the first plan builds the histograms");
    assert_eq!(hit, Some(false));
    // A second engine of the database hits the first one's cached tree.
    assert_eq!(plan(db.engine()), (0, Some(true)));
    // A session with another plan-shaping config misses the cache, yet the
    // shared histograms are not built again.
    let mut other = db.session();
    other.set_exec_config(ExecConfig { reorder_joins: false, ..ExecConfig::default() });
    assert_eq!(plan(other.engine()), (0, Some(false)));
    // Standalone engines each get a private context: each builds its own
    // histograms and misses its own cache.
    for _ in 0..2 {
        let (reads, hit) = plan(Engine::over(db.catalog(), db.disk()));
        assert!(reads > 0, "a standalone engine builds its own histograms");
        assert_eq!(hit, Some(false));
    }
}

#[test]
fn reordered_three_way_join_verifies_cleanly() {
    let db = fixture(1);
    let engine = Engine::over(db.catalog(), db.disk());
    let sql = "SELECT R.ID FROM R, S, T WHERE R.X = S.X AND S.V = T.V";
    let report = engine.verify(sql).unwrap().expect("flat plan expected");
    assert!(report.ok(), "reordered plan failed verification: {:?}", report.violations);
    // The verifier must have analysed the plan the executor runs, i.e. the
    // reordered one: switching the optimizer off must also verify (both
    // orders are legal; the point is each is checked as-it-runs).
    let config = ExecConfig { reorder_joins: false, ..ExecConfig::default() };
    let engine_off = Engine::over(db.catalog(), db.disk()).with_config(config);
    let report_off = engine_off.verify(sql).unwrap().expect("flat plan expected");
    assert!(report_off.ok(), "unreordered plan failed: {:?}", report_off.violations);
}

/// Regression for the similarity-driver bug: a `~ WITHIN` predicate must
/// never drive a merge join (the merge machinery compares for exact
/// equality, which silently drops the tolerance). The unnested answer must
/// match the naive reference on data where only the tolerance makes pairs
/// match (R.X and S.X share values 0/10/20, within 15 of each other).
#[test]
fn similarity_join_matches_naive() {
    let db = fixture(1);
    let engine = Engine::over(db.catalog(), db.disk());
    let sql = "SELECT R.ID FROM R, S WHERE R.X ~ S.X WITHIN 15";
    let unnest = engine.run_sql(sql, Strategy::Unnest).unwrap();
    let naive = engine.run_sql(sql, Strategy::Naive).unwrap();
    assert_eq!(
        unnest.answer.canonicalized(),
        naive.answer.canonicalized(),
        "similarity join diverged from the reference"
    );
    // And it must still verify: the outline's merge drivers exclude it.
    let report = engine.verify(sql).unwrap().expect("flat plan expected");
    assert!(report.ok(), "{:?}", report.violations);
}

// ---------------------------------------------------------------------------
// Injected failures: exact rule ids
// ---------------------------------------------------------------------------

/// A merge join whose inputs were never sorted is rejected with
/// `V-PROP-SORT`.
#[test]
fn unsorted_merge_join_input_is_rejected() {
    let col = PlanCol { binding: "R".into(), attr: 1 };
    let mut outline = Outline::default();
    outline.ops.push(PhysOp::declare(
        "scan R",
        vec![],
        vec![],
        vec![Prop::Binding("R".into()), Prop::MinDegree(Degree::ZERO)],
    ));
    outline.ops.push(PhysOp::declare(
        "scan S",
        vec![],
        vec![],
        vec![Prop::Binding("S".into()), Prop::MinDegree(Degree::ZERO)],
    ));
    // The merge join demands ⪯-sorted inputs; neither scan delivers them.
    outline.ops.push(PhysOp::declare(
        "merge-join R.X = S.X",
        vec![0, 1],
        vec![
            (0, Prop::Sorted { col: col.clone(), alpha: Degree::ZERO }),
            (
                1,
                Prop::Sorted { col: PlanCol { binding: "S".into(), attr: 1 }, alpha: Degree::ZERO },
            ),
        ],
        vec![Prop::Binding("R".into()), Prop::Binding("S".into())],
    ));
    outline.ops.push(PhysOp::declare("output", vec![2], vec![], vec![Prop::DupMax]));
    let (_, violations) = outline.check();
    let sorts: Vec<_> = violations.iter().filter(|v| v.rule == "V-PROP-SORT").collect();
    assert_eq!(sorts.len(), 2, "both unsorted inputs must be flagged: {violations:?}");
    assert!(sorts[0].path.contains("merge-join"), "{:?}", sorts[0]);
}

/// A push-down bound looser than the query's `WITH D > z` threshold widens
/// the answer and is rejected with `V-THRESH-WIDEN` — as is any bound at all
/// when the query has no threshold.
#[test]
fn widened_threshold_is_rejected() {
    let t = Threshold { z: 0.3, strict: true };
    let v = check_threshold(Some(t), Degree::clamped(0.5)).expect("must reject");
    assert_eq!(v.rule, "V-THRESH-WIDEN");
    let v = check_threshold(None, Degree::clamped(0.1)).expect("must reject");
    assert_eq!(v.rule, "V-THRESH-WIDEN");
    // Tightening is sound: α ≤ z passes, as does no push-down at all.
    assert!(check_threshold(Some(t), Degree::clamped(0.3)).is_none());
    assert!(check_threshold(None, Degree::ZERO).is_none());
}

/// A plan tagged with Theorem 4.1 (independent inner block) whose bound form
/// actually carries an extra correlation predicate is rejected with
/// `R-T4.1-INDEP`: the rewrite's precondition does not hold.
#[test]
fn mistagged_type_n_with_correlated_inner_is_rejected() {
    let db = fixture(1);
    let q =
        fuzzy_db::sql::parse("SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)")
            .unwrap();
    let mut plan = build_plan(&q, &db.catalog()).unwrap();
    // The transformer correctly tags this TypeJ (T4.2). Forge the tag.
    let UnnestPlan::Flat(p) = &mut plan else { panic!("flat plan expected") };
    let blocks = p.rule.blocks().expect("leveled rule").to_vec();
    assert_eq!(p.rule.id(), "T4.2");
    p.rule = RewriteRule::TypeN { blocks };
    let report = verify_plan(&plan, Strategy::Unnest, &ExecConfig::default(), &db.catalog(), None);
    assert!(!report.ok());
    assert!(
        report.violations.iter().any(|v| v.rule == "R-T4.1-INDEP"),
        "expected R-T4.1-INDEP, got {:?}",
        report.violations
    );
}
