//! Invariant tests over the per-operator metrics registry (`EXPLAIN
//! ANALYZE`): relations between counters that must hold for every query, on
//! every strategy, at every thread count.

use fuzzy_db::engine::{Engine, QueryOutcome, Strategy};
use fuzzy_db::rel::Catalog;
use fuzzy_db::storage::SimDisk;
use fuzzy_db::workload::{generate, paper, WorkloadSpec};
use fuzzy_db::Database;

fn workload_db(n: usize, seed: u64) -> (Catalog, SimDisk) {
    let disk = SimDisk::with_default_page_size();
    let spec = WorkloadSpec { n_outer: n, n_inner: n, fanout: 7, seed, ..Default::default() };
    let w = generate(&disk, spec).expect("workload");
    let mut catalog = Catalog::new();
    catalog.register(w.outer.clone());
    catalog.register(w.inner.clone());
    (catalog, disk)
}

fn dating_db() -> (Catalog, SimDisk) {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::dating_service(&disk).expect("paper catalog");
    (catalog, disk)
}

/// Section 3's core claim, checked on the actual counters: the extended
/// merge-join examines no more pairs — and evaluates no more fuzzy
/// comparisons — than the nested-loop method on the same workload.
#[test]
fn merge_join_work_bounded_by_nested_loop() {
    let (catalog, disk) = workload_db(400, 7);
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)";
    let mj = engine.run_sql(sql, Strategy::Unnest).unwrap();
    let nl = engine.run_sql(sql, Strategy::NestedLoop).unwrap();
    assert_eq!(mj.answer.canonicalized(), nl.answer.canonicalized());
    let (mjt, nlt) = (mj.metrics.totals(), nl.metrics.totals());
    assert_eq!(nlt.pairs_examined, 400 * 400, "NL examines the full cross product");
    assert!(
        mjt.pairs_examined < nlt.pairs_examined,
        "mj pairs {} vs nl pairs {}",
        mjt.pairs_examined,
        nlt.pairs_examined
    );
    assert!(
        mjt.fuzzy_comparisons <= nlt.fuzzy_comparisons,
        "mj cmp {} vs nl cmp {}",
        mjt.fuzzy_comparisons,
        nlt.fuzzy_comparisons
    );
}

fn assert_buffers_balance(out: &QueryOutcome, context: &str) {
    for n in out.metrics.ops() {
        let m = &n.metrics;
        assert_eq!(
            m.buffer_hits + m.buffer_misses,
            m.buffer_requests,
            "buffer accounting off in [{}] {} of {context}",
            n.kind.name(),
            n.label
        );
    }
}

/// Every buffer-pool request is either a hit or a miss — per operator, on
/// every strategy.
#[test]
fn buffer_hits_plus_misses_equal_requests() {
    let (catalog, disk) = workload_db(300, 11);
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)";
    for strategy in
        [Strategy::Unnest, Strategy::NestedLoop, Strategy::MaterializedNestedLoop, Strategy::Naive]
    {
        let out = engine.run_sql(sql, strategy).unwrap();
        assert_buffers_balance(&out, &format!("{strategy:?}"));
        assert!(out.metrics.totals().buffer_requests > 0, "{strategy:?} used no buffers");
    }
}

/// The final operator's `tuples_out` (Output for physical plans, Naive for
/// the fallback) is exactly the answer-set cardinality, for one query of
/// every class in the catalogue (none use LIMIT, which applies after the
/// Output operator).
#[test]
fn final_operator_tuples_out_matches_answer() {
    let (catalog, disk) = workload_db(200, 3);
    let engine = Engine::over(catalog.clone().into(), &disk);
    let queries = [
        "SELECT R.ID FROM R WHERE R.V >= 500",
        "SELECT R.ID FROM R, S WHERE R.X = S.X WITH D > 0.3",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)",
        "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)",
        "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.V = R.V)",
        "SELECT R.ID FROM R WHERE R.V > (SELECT AVG(S.V) FROM S)",
        "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)",
        "SELECT R.ID FROM R WHERE R.V > ALL (SELECT S.V FROM S)",
        // General shape: exercises the naive fallback's Naive node.
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) \
         AND R.V IN (SELECT S.V FROM S)",
    ];
    for sql in queries {
        let out = engine.run_sql(sql, Strategy::Unnest).unwrap();
        let last = out.metrics.ops().last().unwrap_or_else(|| panic!("no ops for {sql}"));
        assert_eq!(
            last.metrics.tuples_out,
            out.answer.len() as u64,
            "final op [{}] {} of {sql}",
            last.kind.name(),
            last.label
        );
        assert_buffers_balance(&out, sql);
    }
}

/// A pushed-down `WITH D > z` threshold visibly prunes pairs: the counter
/// that records the push-down's direct savings is positive.
#[test]
fn threshold_pushdown_records_pruned_pairs() {
    let (catalog, disk) = workload_db(300, 21);
    let engine = Engine::over(catalog.clone().into(), &disk);
    let out = engine
        .run_sql(
            "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) WITH D > 0.9",
            Strategy::Unnest,
        )
        .unwrap();
    assert!(out.metrics.totals().pairs_pruned > 0, "no pairs recorded as pruned");
}

/// Regression pin for the naive/executor comparison-unit bugfix: both
/// strategies count Value-level fuzzy comparisons in the same unit, so their
/// counts on the paper's Example 4.1 are fixed, comparable numbers.
///
/// F and M have 4 tuples each. Naive: one `F.AGE = 'medium young'`
/// comparison per F tuple (4), and for the three F tuples whose age degree
/// is positive (the conjunction short-circuits on Cathy) the IN evaluates
/// the subquery (4 `M.AGE = 'middle age'` comparisons each) plus |T| = 3
/// set-membership comparisons: 4 + 3×(4+3) = 25. Unnest: filter scans
/// evaluate the local predicates once per stored tuple (4 + 4) and the
/// merge windows compare 4 income pairs: 12.
#[test]
fn naive_and_unnest_count_comparisons_in_the_same_unit() {
    let (catalog, disk) = dating_db();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT F.NAME FROM F \
               WHERE F.AGE = 'medium young' AND F.INCOME IN \
               (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')";
    let naive = engine.run_sql(sql, Strategy::Naive).unwrap();
    let unnest = engine.run_sql(sql, Strategy::Unnest).unwrap();
    assert_eq!(naive.answer.canonicalized(), unnest.answer.canonicalized());
    let counts =
        (naive.metrics.totals().fuzzy_comparisons, unnest.metrics.totals().fuzzy_comparisons);
    assert_eq!(counts, (25, 12), "(naive, unnest) comparison counts drifted");
}

/// `EXPLAIN ANALYZE` through the statement layer: the rendering carries the
/// plan, the per-operator lines, and an answer cardinality that matches a
/// direct run of the same query.
#[test]
fn explain_analyze_reports_actual_operators() {
    let disk = SimDisk::with_default_page_size();
    let catalog = paper::dating_service(&disk).expect("paper catalog");
    let db = Database::from_catalog(catalog, disk);
    let sql = "SELECT F.NAME FROM F WHERE F.INCOME IN \
               (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)";
    let rows = db.query(sql).collect().unwrap().len();
    let text = match db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap() {
        fuzzy_db::StatementResult::Explained(text) => text,
        other => panic!("expected Explained, got {other:?}"),
    };
    assert!(text.contains("query class: TypeJ"), "{text}");
    assert!(text.contains("actual:"), "{text}");
    assert!(text.contains("[sort]"), "{text}");
    assert!(text.contains("[output]"), "{text}");
    assert!(text.contains(&format!("answer: {rows} rows")), "{text}");
    // Plain EXPLAIN stops before the actual section.
    let plain = match db.execute(&format!("EXPLAIN {sql}")).unwrap() {
        fuzzy_db::StatementResult::Explained(text) => text,
        other => panic!("expected Explained, got {other:?}"),
    };
    assert!(!plain.contains("actual:"), "{plain}");
}

/// One query per class of the unnesting catalogue, plus the shape the naive
/// fallback serves ("General"), over `workload_db`'s R and S.
const CLASS_CORPUS: [(&str, &str); 11] = [
    ("Flat", "SELECT R.ID FROM R, S WHERE R.X = S.X WITH D > 0.3"),
    ("TypeN", "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)"),
    ("TypeJ", "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)"),
    ("TypeJSome", "SELECT R.ID FROM R WHERE R.X = SOME (SELECT S.X FROM S WHERE S.V = R.V)"),
    ("TypeNX", "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)"),
    ("TypeJX", "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.V = R.V)"),
    ("TypeA", "SELECT R.ID FROM R WHERE R.V > (SELECT AVG(S.V) FROM S)"),
    ("TypeJA", "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)"),
    ("TypeAll", "SELECT R.ID FROM R WHERE R.V > ALL (SELECT S.V FROM S)"),
    (
        "Chain(3)",
        "SELECT R.ID FROM R WHERE R.X IN \
         (SELECT S.X FROM S WHERE S.X IN (SELECT S.X FROM S))",
    ),
    (
        "General",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) \
         AND R.V IN (SELECT S.V FROM S)",
    ),
];

/// `EXPLAIN ANALYZE` succeeds for every query class in the unnesting
/// catalogue plus the naive fallback, and its answer line always matches the
/// run's answer cardinality.
#[test]
fn explain_analyze_covers_every_query_class() {
    let (catalog, disk) = workload_db(80, 5);
    let engine = Engine::over(catalog.clone().into(), &disk);
    for (class, sql) in CLASS_CORPUS {
        let (text, outcome) = engine.explain_analyze(sql).unwrap();
        assert!(text.contains(&format!("query class: {class}")), "{class}: {text}");
        assert!(text.contains("actual:"), "{class}: {text}");
        assert!(
            text.contains(&format!("answer: {} rows", outcome.answer.len())),
            "{class}: {text}"
        );
        if class == "General" {
            assert!(text.contains("strategy: naive fallback"), "{class}: {text}");
            assert!(text.contains("[naive] naive-eval"), "{class}: {text}");
        }
    }
}

/// The oracle's exact work, pinned: `Strategy::Naive` answer sizes and
/// fuzzy-comparison counts for the class corpus plus three shapes only the
/// naive fallback serves (EXISTS, a grouped aggregate over a sub-query, and
/// a three-level block correlated with the outermost one). The naive
/// evaluator re-runs every nested block per outer tuple and short-circuits
/// each conjunction in order; these numbers move only if that literal
/// evaluation does. Where the unnester has a plan, the answers must also
/// equal its answers.
#[test]
fn naive_counters_are_pinned() {
    let (catalog, disk) = workload_db(80, 5);
    let engine = Engine::over(catalog.into(), &disk);
    let extra = [
        (
            "Exists",
            "SELECT R.ID FROM R WHERE EXISTS (SELECT S.ID FROM S WHERE S.X = R.X) \
             AND R.X IN (SELECT S.X FROM S)",
        ),
        (
            "Grouped",
            "SELECT R.X, COUNT(R.ID), MAX(R.V) FROM R WHERE R.X IN (SELECT S.X FROM S) \
             GROUP BY R.X HAVING COUNT(*) > 1",
        ),
        (
            "Correlated(3)",
            "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE EXISTS \
             (SELECT T.ID FROM S T WHERE T.X = R.X AND T.ID = S.ID))",
        ),
    ];
    // (answer rows, fuzzy comparisons) under `Strategy::Naive`, in corpus
    // order then `extra` order.
    let pins: [(usize, u64); 14] = [
        (80, 6400),   // Flat
        (80, 4080),   // TypeN
        (0, 6400),    // TypeJ
        (0, 6400),    // TypeJSome
        (18, 4080),   // TypeNX
        (80, 6400),   // TypeJX
        (47, 80),     // TypeA
        (72, 6480),   // TypeJA
        (0, 6400),    // TypeAll
        (80, 330480), // Chain(3)
        (0, 10480),   // General
        (80, 10480),  // Exists
        (8, 4080),    // Grouped
        (80, 558284), // Correlated(3)
    ];
    for ((class, sql), pin) in CLASS_CORPUS.iter().chain(&extra).zip(pins) {
        let naive = engine.run_sql(sql, Strategy::Naive).unwrap();
        let got = (naive.answer.len(), naive.metrics.totals().fuzzy_comparisons);
        assert_eq!(got, pin, "{class}: (rows, fuzzy comparisons) drifted");
        let unnest = engine.run_sql(sql, Strategy::Unnest).unwrap();
        if unnest.plan_label != "naive-fallback" {
            assert_eq!(naive.answer.canonicalized(), unnest.answer.canonicalized(), "{class}");
        }
    }
}

/// Deterministic chain fixture matching the pinned-counter baseline: R has
/// 8·scale (ID, X) tuples, S 6·scale, T 4·scale, X cycling over three join
/// values.
fn chain_db(scale: usize) -> (Catalog, SimDisk) {
    use fuzzy_db::core::Value;
    use fuzzy_db::rel::{AttrType, Schema, StoredTable, Tuple};
    let disk = SimDisk::with_default_page_size();
    let mut catalog = Catalog::new();
    for (name, base) in [("R", 8usize), ("S", 6), ("T", 4)] {
        let schema = Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number)]);
        let t = StoredTable::create(&disk, name, schema);
        let mut w = t.file().bulk_writer();
        for i in 0..base * scale {
            let tu =
                Tuple::full(vec![Value::number(i as f64), Value::number((i % 3) as f64 * 10.0)]);
            w.append(&tu.encode(0)).unwrap();
        }
        w.finish().unwrap();
        catalog.register(t);
    }
    disk.reset_io();
    (catalog, disk)
}

/// Pinned regression for the streaming pipeline: on the scale-8 Chain(3)
/// fixture the materialize-every-step executor performed 13 simulated page
/// writes; the pipelined operator tree must stay strictly below that pin
/// while reproducing its exact CPU-side counters — bit-identical at every
/// thread count.
#[test]
fn pipelined_chain_beats_materialized_write_pin() {
    use fuzzy_db::engine::ExecConfig;
    let sql = "SELECT R.ID FROM R WHERE R.X IN \
               (SELECT S.X FROM S WHERE S.X IN (SELECT T.X FROM T))";
    let (catalog, disk) = chain_db(8);
    for threads in [1usize, 2, 4, 8] {
        let engine = Engine::over(catalog.clone().into(), &disk)
            .with_config(ExecConfig { threads, ..Default::default() });
        let out = engine.run_sql(sql, Strategy::Unnest).unwrap();
        let t = out.metrics.totals();
        let label = format!("chain3 scale 8, {threads} thread(s)");
        assert!(
            out.measurement.io.writes < 13,
            "{label}: {} writes, not below the materialized pin of 13",
            out.measurement.io.writes
        );
        assert_eq!(out.answer.len(), 64, "{label}: answer cardinality");
        assert_eq!(t.tuples_out, 12304, "{label}: tuples_out");
        assert_eq!(t.fuzzy_comparisons, 11440, "{label}: fuzzy_comparisons");
        assert_eq!(t.pairs_pruned, 0, "{label}: pairs_pruned");
    }
}

/// The partitioned join deliberately ignores `ExecConfig::threads` and always
/// runs serially (see DESIGN.md): sampling splitters, partition boundaries,
/// and per-partition pair order feed the exact-counter contract, so the knob
/// must not change a single registry entry.
#[test]
fn partitioned_join_ignores_thread_count() {
    use fuzzy_db::engine::{ExecConfig, JoinMethod};
    let (catalog, disk) = workload_db(300, 17);
    let sql = "SELECT R.ID, S.ID FROM R, S WHERE R.X = S.X";
    let run = |threads: usize| {
        let engine = Engine::over(catalog.clone().into(), &disk).with_config(ExecConfig {
            join_method: JoinMethod::Partitioned,
            threads,
            ..Default::default()
        });
        let out = engine.run_sql(sql, Strategy::Unnest).unwrap();
        (out.answer.canonicalized(), out.metrics.deterministic(), out.measurement.io)
    };
    let (answer1, metrics1, io1) = run(1);
    assert!(!answer1.is_empty());
    for threads in [2usize, 4, 8] {
        let (answer, metrics, io) = run(threads);
        assert_eq!(answer, answer1, "{threads} threads: answer diverged");
        assert_eq!(metrics, metrics1, "{threads} threads: metrics registry diverged");
        assert_eq!(
            (io.reads, io.writes),
            (io1.reads, io1.writes),
            "{threads} threads: I/O diverged"
        );
    }
}
