//! Invariant tests over the per-operator metrics registry (`EXPLAIN
//! ANALYZE`): relations between counters that must hold for every query, on
//! every strategy, at every thread count.

use fuzzy_db::engine::{Engine, ExecConfig, OpKind, QueryOutcome, Strategy};
use fuzzy_db::rel::Catalog;
use fuzzy_db::sql::ExplainMode;
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

/// Every strategy reads pages, and charges the reads to its operators.
#[test]
fn every_strategy_reads_pages() {
    let (catalog, disk) = workload_db(300, 11);
    let engine = Engine::over(catalog.clone().into(), &disk);
    let sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)";
    for strategy in
        [Strategy::Unnest, Strategy::NestedLoop, Strategy::MaterializedNestedLoop, Strategy::Naive]
    {
        let out = engine.run_sql(sql, strategy).unwrap();
        assert!(out.metrics.totals().page_reads > 0, "{strategy:?} read no pages");
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

/// `EXPLAIN`, `EXPLAIN ANALYZE`, and `EXPLAIN VERIFY` through the query
/// builder follow `.strategy(..)`: a baseline statement renders, verifies,
/// and runs its own operator tree — block nested loops, no sorts.
#[test]
fn explain_follows_the_statement_strategy() {
    let (catalog, disk) = dating_db();
    let db = Database::from_catalog(catalog, disk);
    let sql = "SELECT F.NAME FROM F WHERE F.INCOME IN \
               (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)";
    for (strategy, prefix) in [
        (Strategy::NestedLoop, "nested-loop:"),
        (Strategy::MaterializedNestedLoop, "materialized-nl:"),
    ] {
        let (text, outcome) = db.query(sql).strategy(strategy).explain_analyze().unwrap();
        assert!(outcome.plan_label.starts_with(prefix), "{}", outcome.plan_label);
        assert!(text.contains(&format!("strategy: {prefix}")), "{text}");
        assert!(text.contains("[join] nested-loop +"), "{text}");
        assert!(!text.contains("[sort]"), "{text}");
        let plain = db.query(sql).strategy(strategy).explain().unwrap();
        assert!(text.starts_with(&plain), "{plain}\nvs\n{text}");
        let verify = db.query(sql).strategy(strategy).explain_verify().unwrap();
        assert!(verify.contains(&format!("strategy: {prefix}")), "{verify}");
        assert!(verify.contains("verification: OK"), "{verify}");
        assert!(!verify.contains("sort"), "{verify}");
    }
    // The oracle has no operator tree: EXPLAIN names it and lowers nothing,
    // and EXPLAIN ANALYZE adds the naive run.
    let naive = db.query(sql).strategy(Strategy::Naive).explain().unwrap();
    assert!(naive.ends_with("strategy: naive\n"), "{naive}");
    let (text, outcome) = db.query(sql).strategy(Strategy::Naive).explain_analyze().unwrap();
    assert_eq!(outcome.plan_label, "naive");
    assert!(text.starts_with(&naive) && text.contains("[naive] naive-eval"), "{text}");
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

/// `EXPLAIN ANALYZE` of `sql` under [`Strategy::Unnest`]: the rendering and
/// the outcome of the run it reports.
fn explain_analyze(engine: &Engine, sql: &str) -> (String, QueryOutcome) {
    let q = fuzzy_db::sql::parse(sql).unwrap();
    let (text, outcome) = engine.explain(&q, Strategy::Unnest, ExplainMode::Analyze).unwrap();
    (text, outcome.expect("EXPLAIN ANALYZE runs the statement"))
}

/// `EXPLAIN ANALYZE` succeeds for every query class in the unnesting
/// catalogue plus the naive fallback, and its answer line always matches the
/// run's answer cardinality.
#[test]
fn explain_analyze_covers_every_query_class() {
    let (catalog, disk) = workload_db(80, 5);
    let engine = Engine::over(catalog.clone().into(), &disk);
    for (class, sql) in CLASS_CORPUS {
        let (text, outcome) = explain_analyze(&engine, sql);
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

/// Every `[sort]` line of `EXPLAIN ANALYZE` splits the sort's wall time into
/// run generation and merging: the line prints both next to `t=`, and the
/// two phases fit inside the operator's own time — exactly on the recorded
/// durations, and up to the rounding of three printed decimals on the text.
#[test]
fn sort_lines_split_wall_time_into_generation_and_merge() {
    let (catalog, disk) = workload_db(600, 5);
    let config = ExecConfig { sort_pages: 2, ..Default::default() };
    let engine = Engine::over(catalog.into(), &disk).with_config(config);
    let (mut sorts, mut merged) = (0, 0);
    for (class, sql) in CLASS_CORPUS {
        let (text, outcome) = explain_analyze(&engine, sql);
        let lines: Vec<&str> =
            text.lines().filter(|l| l.trim_start().starts_with("[sort]")).collect();
        let nodes: Vec<_> =
            outcome.metrics.ops().iter().filter(|n| n.kind == OpKind::Sort).collect();
        assert_eq!(lines.len(), nodes.len(), "{class}: {text}");
        for (line, node) in lines.iter().zip(nodes) {
            let ms = |tag: &str| -> f64 {
                let at = line.find(&format!(" {tag}=")).unwrap_or_else(|| panic!("{tag}: {line}"));
                let rest = &line[at + tag.len() + 2..];
                rest[..rest.find("ms").unwrap()].parse().unwrap()
            };
            let (t, generation, merge) = (ms("t"), ms("gen"), ms("merge"));
            assert!(generation + merge <= t + 0.002, "{class}: {line}");
            let p = node.sort_phases;
            assert!(p.generation + p.merge <= node.wall, "{class}: {p:?} vs {:?}", node.wall);
            sorts += 1;
            merged += usize::from(!p.merge.is_zero());
        }
    }
    assert!(sorts > 0 && merged > 0, "{sorts} sorts, {merged} with a timed merge");
}

/// The EXPLAIN estimate of a base relation's initial sort runs follows run
/// generation's arena rule, so on perfbench's analytic statements — whose
/// sorted relations carry no local predicates — every estimate equals the
/// `runs` the sort reports (4000 tuples of 128 bytes in a 32 × 8 KiB arena
/// make 2 runs, not the 3 that 65 pages over 32 would suggest).
#[test]
fn estimated_initial_runs_match_the_analytic_sorts() {
    let disk = SimDisk::with_default_page_size();
    let spec = WorkloadSpec {
        n_outer: 4000,
        n_inner: 4000,
        tuple_bytes: 128,
        fanout: 7,
        seed: 21,
        ..Default::default()
    };
    let w = generate(&disk, spec).expect("workload");
    let mut catalog = Catalog::new();
    catalog.register(w.outer);
    catalog.register(w.inner);
    let config = ExecConfig { buffer_pages: 32, sort_pages: 32, ..Default::default() };
    let engine = Engine::over(catalog.into(), &disk).with_config(config);
    for sql in [
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)",
        "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)",
        "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)",
    ] {
        let (text, outcome) = explain_analyze(&engine, sql);
        let sorts: Vec<_> =
            outcome.metrics.ops().iter().filter(|n| n.kind == OpKind::Sort).collect();
        let mut checked = 0;
        for line in text.lines().filter_map(|l| l.strip_prefix("est: sort ")) {
            let (binding, rest) = line.split_once(':').unwrap();
            let runs: u64 =
                rest.split(", ").nth(1).unwrap().split(' ').next().unwrap().parse().unwrap();
            let sort = sorts
                .iter()
                .find(|n| {
                    n.label.starts_with(&format!("sort {binding} "))
                        || n.label.starts_with(&format!("sort [{binding}] "))
                })
                .unwrap_or_else(|| panic!("{sql}: no sort of {binding} in\n{text}"));
            assert_eq!(runs, sort.metrics.sort_runs, "{sql}: {binding}\n{text}");
            assert_eq!(runs, 2, "{sql}: {binding}");
            checked += 1;
        }
        assert_eq!(checked, 2, "{sql}: both relations are sorted\n{text}");
    }
}

/// Shapes only the naive fallback serves: EXISTS, a grouped aggregate over a
/// sub-query, and a three-level block correlated with the outermost one.
const FALLBACK_ONLY: [(&str, &str); 3] = [
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
    let extra = FALLBACK_ONLY;
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

/// The naive fallback's exact work, pinned: under `Strategy::Unnest` the
/// fallback evaluates each closed nested block once per statement, so it
/// counts fewer fuzzy comparisons than the oracle exactly where a closed
/// block has predicates of its own (the set-membership comparisons of IN
/// stay per outer tuple). The fallback never counts more than the oracle,
/// and its answers equal the oracle's.
#[test]
fn fallback_counters_are_pinned() {
    let (catalog, disk) = workload_db(80, 5);
    let engine = Engine::over(catalog.into(), &disk);
    let general = CLASS_CORPUS.iter().filter(|(class, _)| *class == "General");
    let local_preds = [(
        "ClosedLocalPreds",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V > 100) \
         AND R.X IN (SELECT S.X FROM S WHERE S.V < 900)",
    )];
    // (answer rows, fuzzy comparisons) under `Strategy::Unnest`. The first
    // four equal the oracle's pins: their closed blocks have no predicates.
    // On ClosedLocalPreds the oracle counts 20240: it re-runs both closed
    // blocks' 80 local comparisons for each of R's 80 tuples (12800), where
    // the fallback runs them once (160); both count 7440 IN comparisons.
    let pins: [(usize, u64); 5] = [
        (0, 10480),   // General
        (80, 10480),  // Exists
        (8, 4080),    // Grouped
        (80, 558284), // Correlated(3)
        (80, 7600),   // ClosedLocalPreds
    ];
    for ((class, sql), pin) in general.chain(&FALLBACK_ONLY).chain(&local_preds).zip(pins) {
        let served = engine.run_sql(sql, Strategy::Unnest).unwrap();
        assert_eq!(served.plan_label, "naive-fallback", "{class}");
        let oracle = engine.run_sql(sql, Strategy::Naive).unwrap();
        let (cmp, oracle_cmp) =
            (served.metrics.totals().fuzzy_comparisons, oracle.metrics.totals().fuzzy_comparisons);
        assert_eq!((served.answer.len(), cmp), pin, "{class}: (rows, fuzzy comparisons) drifted");
        assert!(cmp <= oracle_cmp, "{class}: fallback {cmp} > oracle {oracle_cmp} comparisons");
        assert_eq!(format!("{:?}", served.answer), format!("{:?}", oracle.answer), "{class}");
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

/// The operators are charged all of a statement's page I/O: for every class
/// of the corpus and a three-table join (whose first step materializes its
/// output under the partitioned and nested-loop methods), the operators'
/// `page_reads` and `page_writes` add up to the statement's measured I/O —
/// under the merge and the partitioned join (with a 4-page buffer, so it
/// partitions), under both nested-loop baselines, at 1 and 2 threads.
#[test]
fn operators_account_for_every_page_io() {
    use fuzzy_db::engine::JoinMethod;
    let three_table = "SELECT R.ID FROM R, S, S T WHERE R.X = S.X AND S.V = T.V AND T.V < 500";
    let (catalog, disk) = workload_db(80, 5);
    let partitioned =
        ExecConfig { join_method: JoinMethod::Partitioned, buffer_pages: 4, ..Default::default() };
    let runs = [
        (Strategy::Unnest, ExecConfig::default()),
        (Strategy::Unnest, partitioned),
        (Strategy::NestedLoop, ExecConfig::default()),
        (Strategy::MaterializedNestedLoop, ExecConfig::default()),
    ];
    let flat3 = [("Flat(3)", three_table)];
    for (strategy, config) in runs {
        for threads in [1usize, 2] {
            let engine = Engine::over(catalog.clone().into(), &disk)
                .with_config(ExecConfig { threads, ..config });
            for (class, sql) in CLASS_CORPUS.iter().chain(&flat3) {
                let out = match engine.run_sql(sql, strategy) {
                    Ok(out) => out,
                    Err(fuzzy_db::EngineError::Unsupported(_)) => continue,
                    Err(e) => panic!("{class} under {strategy:?}: {e}"),
                };
                let t = out.metrics.totals();
                assert_eq!(
                    (t.page_reads, t.page_writes),
                    (out.measurement.io.reads, out.measurement.io.writes),
                    "{class} under {strategy:?}, {:?} join, {threads} thread(s)",
                    config.join_method
                );
            }
        }
    }
}

/// What one baseline run is pinned to: `(answer rows, pairs examined, page
/// reads, page writes, fuzzy comparisons)`, or the error kind when the
/// strategy refuses the statement.
type BaselinePin = Result<(usize, u64, u64, u64, u64), &'static str>;

fn baseline_pin(engine: &Engine, sql: &str, strategy: Strategy) -> BaselinePin {
    match engine.run_sql(sql, strategy) {
        Ok(out) => {
            let t = out.metrics.totals();
            Ok((
                out.answer.len(),
                t.pairs_examined,
                t.page_reads,
                t.page_writes,
                t.fuzzy_comparisons,
            ))
        }
        Err(fuzzy_db::EngineError::Unsupported(_)) => Err("unsupported"),
        Err(e) => panic!("{sql} under {strategy:?}: {e}"),
    }
}

/// The baselines' exact work, pinned: answer rows, pairs, page I/O, and
/// fuzzy comparisons of `Strategy::NestedLoop` and
/// `Strategy::MaterializedNestedLoop` over the class corpus, Example 4.1
/// (local predicates on both levels), and a three-table flat join. These
/// are the reference side of the Section 9 comparisons; they move only if
/// the block nested-loop method itself changes. Plain nested loop evaluates
/// p₁ per outer tuple and p₂ per pair, stopping at the first zero, so on
/// Example 4.1 a zero `F.AGE = 'medium young'` skips the pair's p₂ and join.
/// Wherever a baseline answers, its answer equals the naive evaluator's.
/// The three-table join's first step materializes its output, and the
/// temp table's last page write is charged to that join step.
#[test]
fn baseline_counters_are_pinned() {
    let three_table = "SELECT R.ID FROM R, S, S T WHERE R.X = S.X AND S.V = T.V AND T.V < 500";
    let (catalog, disk) = workload_db(80, 5);
    let engine = Engine::over(catalog.into(), &disk);
    let (dating, dating_disk) = dating_db();
    let dating = Engine::over(dating.into(), &dating_disk);
    let example_41 = "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
                      (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')";
    let mut cases: Vec<(&str, &Engine, &str)> =
        CLASS_CORPUS.iter().map(|&(class, sql)| (class, &engine, sql)).collect();
    cases.push(("Example 4.1", &dating, example_41));
    cases.push(("Flat(3)", &engine, three_table));
    // (NestedLoop, MaterializedNestedLoop) per case, in `cases` order.
    let pins: [(BaselinePin, BaselinePin); 13] = [
        (Ok((80, 6400, 4, 0, 6400)), Ok((80, 6400, 4, 0, 6400))), // Flat
        (Ok((80, 6400, 4, 0, 6400)), Ok((80, 6400, 4, 0, 6400))), // TypeN
        (Ok((0, 6400, 4, 0, 6974)), Ok((0, 6400, 4, 0, 6974))),   // TypeJ
        (Ok((0, 6400, 4, 0, 6974)), Ok((0, 6400, 4, 0, 6974))),   // TypeJSome
        (Ok((18, 6400, 4, 0, 2667)), Ok((18, 6400, 4, 0, 2667))), // TypeNX
        (Ok((80, 6400, 4, 0, 6400)), Ok((80, 6400, 4, 0, 6400))), // TypeJX
        (Ok((47, 6400, 4, 0, 80)), Ok((47, 6400, 4, 0, 80))),     // TypeA
        (Ok((72, 6400, 4, 0, 6480)), Ok((72, 6400, 4, 0, 6480))), // TypeJA
        (Ok((0, 6400, 4, 0, 282)), Ok((0, 6400, 4, 0, 282))),     // TypeAll
        (Err("unsupported"), Err("unsupported")),                 // Chain(3)
        (Err("unsupported"), Err("unsupported")),                 // General
        (Ok((2, 16, 2, 0, 37)), Ok((2, 9, 4, 2, 17))),            // Example 4.1
        (Ok((80, 10000, 7, 1, 13600)), Ok((80, 7200, 8, 2, 7280))), // Flat(3)
    ];
    for ((class, engine, sql), (nl_pin, mat_pin)) in cases.iter().zip(pins) {
        let naive = engine.run_sql(sql, Strategy::Naive).unwrap().answer.canonicalized();
        for (strategy, pin) in
            [(Strategy::NestedLoop, nl_pin), (Strategy::MaterializedNestedLoop, mat_pin)]
        {
            let got = baseline_pin(engine, sql, strategy);
            assert_eq!(got, pin, "{class} under {strategy:?}: counters drifted");
            if got.is_ok() {
                let answer = engine.run_sql(sql, strategy).unwrap().answer.canonicalized();
                assert_eq!(answer, naive, "{class} under {strategy:?}");
            }
        }
    }
}

/// The merge-join's degree-cap exit fires only where it cannot change an
/// answer. The type J statement projects R alone, so the join stops each
/// outer tuple's window at the first pair that reaches μ_R(r): output
/// receives exactly one folded row per answer row, and the join still
/// examines every window pair: as many as the same join projecting `S.ID`,
/// which evaluates all of them. When the answer projects an inner column,
/// the exit never fires: the flat `R.ID, S.ID` join's fuzzy comparisons are
/// pinned at 2823, the count this fixture gave before the exit existed (one
/// driver comparison per window pair; the type J join then examined the
/// same 2823 pairs). Threads 1, 2 and 4 agree.
#[test]
fn degree_cap_exit_fires_only_on_outer_projections() {
    let (catalog, disk) = workload_db(400, 7);
    let type_j = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)";
    let type_j_uncapped = "SELECT R.ID, S.ID FROM R, S WHERE R.X = S.X AND S.ID <> R.ID";
    let inner_projected = "SELECT R.ID, S.ID FROM R, S WHERE R.X = S.X";
    for threads in [1usize, 2, 4] {
        let engine = Engine::over(catalog.clone().into(), &disk)
            .with_config(ExecConfig { threads, ..Default::default() });
        let run = |sql: &str| -> (QueryOutcome, [fuzzy_db::engine::OperatorMetrics; 2]) {
            let out = engine.run_sql(sql, Strategy::Unnest).unwrap();
            let op = |kind: OpKind| {
                let ops: Vec<_> = out.metrics.ops().iter().filter(|o| o.kind == kind).collect();
                assert_eq!(ops.len(), 1, "{sql}: one {} operator", kind.name());
                ops[0].metrics
            };
            let ops = [op(OpKind::Join), op(OpKind::Output)];
            (out, ops)
        };
        let (capped, [join, output]) = run(type_j);
        let (_, [uncapped_join, _]) = run(type_j_uncapped);
        assert!(!capped.answer.is_empty(), "the type J fixture answers nothing");
        assert_eq!(output.tuples_in, capped.answer.len() as u64, "{threads} threads");
        assert_eq!(join.pairs_examined, 2823, "{threads} threads");
        assert_eq!(join.pairs_examined, uncapped_join.pairs_examined, "{threads} threads");
        assert!(
            join.fuzzy_comparisons < uncapped_join.fuzzy_comparisons,
            "{threads} threads: the exit never fired ({} comparisons)",
            join.fuzzy_comparisons
        );
        let (_, [flat_join, _]) = run(inner_projected);
        assert_eq!(flat_join.fuzzy_comparisons, 2823, "{threads} threads");
        assert_eq!(flat_join.fuzzy_comparisons, flat_join.pairs_examined, "{threads} threads");
    }
}
