//! The exact counters of every physical operator, pinned in a committed
//! golden file (`tests/golden/counters.json`).
//!
//! Three workloads are covered:
//!
//! * the Section 9 statements perfbench's `analytic` workload runs (type J,
//!   NX and JA) over R and S of 4000 generated 128-byte tuples, fan-out
//!   C = 7, with 32 buffer and 32 sort pages;
//! * one query of every class of the unnesting catalogue (plus the shape
//!   the naive fallback serves) over the generated R and S at two scales;
//! * that catalogue again at 800 tuples under the partitioned join, with a
//!   buffer small enough to split S (13 pages) into 4 partitions, and at
//!   80 tuples under the two nested-loop baselines (without the fallback
//!   shape and the chain, which they refuse);
//! * a fixed script of reads with an INSERT, UPDATE or DELETE after every
//!   three of them, like perfbench's `mixed` workload;
//! * anti and aggregate forms whose blocks both carry a local predicate,
//!   plus the aggregate whose correlation is not an equality, at 80 tuples
//!   under unnesting and the two nested-loop baselines (plain nested loop
//!   evaluates the local predicates inside the operator).
//!
//! Every read records, per operator in start order, its kind, label, and
//! every deterministic counter (tuples in/out, pairs, fuzzy and sort
//! comparisons, sort runs, buffer traffic, page reads and writes). Each
//! workload runs at 1, 2 and 4 threads, and all three must render the same
//! text. A change that moves a counter on purpose regenerates the file and
//! states old → new:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release --test counter_pins
//! ```

use fuzzy_db::core::{Trapezoid, Value};
use fuzzy_db::engine::{JoinMethod, QueryOutcome, Strategy};
use fuzzy_db::rel::{AttrType, Catalog, Schema, Tuple};
use fuzzy_db::storage::SimDisk;
use fuzzy_db::workload::{generate, WorkloadSpec};
use fuzzy_db::{Database, StatementResult};

/// The thread counts every workload runs at; their renderings must agree.
const THREADS: [usize; 3] = [1, 2, 4];

/// perfbench's `analytic` statements, in its order.
const ANALYTIC: [(&str, &str); 3] = [
    ("TypeJ", "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)"),
    ("TypeNX", "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)"),
    ("TypeJA", "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)"),
];

/// One query per class of the unnesting catalogue over the generated R and
/// S, plus the shape the naive fallback serves ("General").
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
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.X IN (SELECT S.X FROM S))",
    ),
    (
        "General",
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) AND R.V IN (SELECT S.V FROM S)",
    ),
];

/// Two-input forms the class corpus leaves out: an aggregate correlated by
/// a non-equality (`agg-scan`), and NOT IN, `>= ALL`, MAX and COUNT with a
/// local predicate on each block that keeps some of its table's tuples.
const LOCAL_CORPUS: [(&str, &str); 5] = [
    ("AggScan", "SELECT R.ID FROM R WHERE R.V >= (SELECT MAX(S.V) FROM S WHERE S.X > R.X)"),
    (
        "NotInLocal",
        "SELECT R.ID FROM R WHERE R.V < 700 AND R.X NOT IN (SELECT S.X FROM S WHERE S.V > 800)",
    ),
    (
        "AllLocal",
        "SELECT R.ID FROM R WHERE R.X < 600 AND R.V >= ALL (SELECT S.V FROM S WHERE S.V < 200)",
    ),
    (
        "MaxLocal",
        "SELECT R.ID FROM R WHERE R.V > 300 AND R.V <= \
         (SELECT MAX(S.V) FROM S WHERE S.X = R.X AND S.V < 800)",
    ),
    (
        "CountLocal",
        "SELECT R.ID FROM R WHERE R.V > 300 AND R.ID >= \
         (SELECT COUNT(S.ID) FROM S WHERE S.X = R.X AND S.V < 500)",
    ),
];

/// The reads of the mixed script: the catalogue over R, S and T.
const MIXED_READS: [&str; 11] = [
    "SELECT R.ID FROM R, S WHERE R.X = S.X WITH D > 0.3",
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)",
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)",
    "SELECT R.ID FROM R WHERE R.X = SOME (SELECT S.X FROM S WHERE S.V = R.V)",
    "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)",
    "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.V = R.V)",
    "SELECT R.ID FROM R WHERE R.V > (SELECT AVG(S.V) FROM S)",
    "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)",
    "SELECT R.ID FROM R WHERE R.V > ALL (SELECT T.V FROM T)",
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.X IN (SELECT T.X FROM T))",
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) AND R.V IN (SELECT T.V FROM T)",
];

/// The writes of the mixed script, one after every three reads: INSERT,
/// UPDATE and DELETE in turn, on S and then on R. Each affects one tuple.
const MIXED_WRITES: [&str; 6] = [
    "INSERT INTO S VALUES (1000, TRI(17, 20, 23), 105)",
    "UPDATE S SET V = 110 WHERE S.ID = 3",
    "DELETE FROM S WHERE S.ID = 0",
    "INSERT INTO R VALUES (1001, 40, 100)",
    "UPDATE R SET V = 120 WHERE R.ID = 5",
    "DELETE FROM R WHERE R.ID = 1",
];

/// Appends one JSON line per read: its case name, SQL, answer size, and
/// the counters of every operator it ran.
fn render_read(out: &mut String, case: &str, sql: &str, outcome: &QueryOutcome) {
    out.push_str(&format!(
        "{{\"case\": {}, \"sql\": {}, \"rows\": {}, \"ops\": [\n",
        quote(case),
        quote(sql),
        outcome.answer.len()
    ));
    let ops = outcome.metrics.deterministic();
    for (i, (kind, label, m)) in ops.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"kind\": {}, \"label\": {}, \"tuples_in\": {}, \"tuples_out\": {}, \
             \"pairs\": {}, \"fuzzy_cmp\": {}, \"pruned\": {}, \"max_window\": {}, \
             \"sort_runs\": {}, \"sort_cmp\": {}, \"page_reads\": {}, \
             \"page_writes\": {}}}{}\n",
            quote(kind),
            quote(label),
            m.tuples_in,
            m.tuples_out,
            m.pairs_examined,
            m.fuzzy_comparisons,
            m.pairs_pruned,
            m.max_window,
            m.sort_runs,
            m.sort_comparisons,
            m.page_reads,
            m.page_writes,
            if i + 1 < ops.len() { "," } else { "" }
        ));
    }
    out.push_str("]},\n");
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A database over the generated Section 9 relations R and S.
fn generated_db(spec: WorkloadSpec, pages: usize, threads: usize) -> Database {
    let disk = SimDisk::with_default_page_size();
    let w = generate(&disk, spec).expect("workload");
    let mut catalog = Catalog::new();
    catalog.register(w.outer);
    catalog.register(w.inner);
    let mut db = Database::from_catalog(catalog, disk);
    let mut config = db.exec_config();
    config.buffer_pages = pages;
    config.sort_pages = pages;
    config.threads = threads;
    db.set_exec_config(config);
    db
}

/// The analytic statements at perfbench's sizes and seed. Returns the
/// rendering and the per-statement means of pairs, sort comparisons and
/// page I/O.
fn analytic(threads: usize) -> (String, [u64; 3]) {
    let spec = WorkloadSpec {
        n_outer: 4000,
        n_inner: 4000,
        tuple_bytes: 128,
        fanout: 7,
        seed: 21,
        ..Default::default()
    };
    let db = generated_db(spec, 32, threads);
    let mut out = String::new();
    let mut sums = [0u64; 3];
    for (class, sql) in ANALYTIC {
        let outcome = db.query(sql).run().unwrap_or_else(|e| panic!("{sql}: {e}"));
        let t = outcome.metrics.totals();
        sums[0] += t.pairs_examined;
        sums[1] += t.sort_comparisons;
        sums[2] += t.page_reads + t.page_writes;
        render_read(&mut out, &format!("analytic/{class}"), sql, &outcome);
    }
    (out, sums.map(|s| (s as f64 / ANALYTIC.len() as f64).round() as u64))
}

/// The class corpus over the generated R and S of `n` tuples each, with
/// 256 buffer and sort pages.
fn corpus(n: usize, threads: usize) -> String {
    corpus_under(&format!("corpus-{n}"), n, 256, JoinMethod::Merge, Strategy::Unnest, threads)
}

/// The class corpus over the generated R and S of `n` tuples each, with
/// `pages` buffer and sort pages, flat joins driven by `method`, run by
/// `strategy`. The nested-loop baselines refuse the fallback shape and the
/// chain, which reuses the binding `S` across nesting levels, so those two
/// run only under `Strategy::Unnest`.
fn corpus_under(
    tag: &str,
    n: usize,
    pages: usize,
    method: JoinMethod,
    strategy: Strategy,
    threads: usize,
) -> String {
    let spec = WorkloadSpec { n_outer: n, n_inner: n, fanout: 7, seed: 5, ..Default::default() };
    let mut db = generated_db(spec, pages, threads);
    let mut config = db.exec_config();
    config.join_method = method;
    db.set_exec_config(config);
    let mut out = String::new();
    for (class, sql) in CLASS_CORPUS {
        if matches!(class, "General" | "Chain(3)") && strategy != Strategy::Unnest {
            continue;
        }
        let outcome =
            db.query(sql).strategy(strategy).run().unwrap_or_else(|e| panic!("{sql}: {e}"));
        render_read(&mut out, &format!("{tag}/{class}"), sql, &outcome);
    }
    out
}

/// The local-predicate corpus over the generated R and S of 80 tuples
/// each, with 256 buffer and sort pages, run by `strategy`.
fn locals(tag: &str, strategy: Strategy, threads: usize) -> String {
    let spec = WorkloadSpec { n_outer: 80, n_inner: 80, fanout: 7, seed: 5, ..Default::default() };
    let db = generated_db(spec, 256, threads);
    let mut out = String::new();
    for (case, sql) in LOCAL_CORPUS {
        let outcome =
            db.query(sql).strategy(strategy).run().unwrap_or_else(|e| panic!("{sql}: {e}"));
        render_read(&mut out, &format!("{tag}/{case}"), sql, &outcome);
    }
    out
}

/// R, S and T of 24, 18 and 12 rows (`ID, X, V`): `X` on a grid of six
/// points, every other value triangular, and `V` one of four values.
fn mixed_db(threads: usize) -> Database {
    let mut db = Database::with_paper_vocabulary();
    db.set_threads(threads);
    for (name, n) in [("R", 24usize), ("S", 18), ("T", 12)] {
        let schema = Schema::of(&[
            ("ID", AttrType::Number),
            ("X", AttrType::Number),
            ("V", AttrType::Number),
        ]);
        db.create_table(name, schema).unwrap();
        let rows = (0..n).map(|i| {
            let c = 10.0 * ((i * 5) % 6) as f64;
            let x = if i % 2 == 0 {
                Value::number(c)
            } else {
                Value::fuzzy(Trapezoid::triangular(c - 3.0, c, c + 3.0).unwrap())
            };
            Tuple::full(vec![
                Value::number(i as f64),
                x,
                Value::number(100.0 + (i % 4) as f64 * 5.0),
            ])
        });
        db.load(name, rows).unwrap();
    }
    db
}

/// The mixed script: two passes over the reads, a write after every three.
fn mixed(threads: usize) -> String {
    let db = mixed_db(threads);
    let mut out = String::new();
    let mut writes = MIXED_WRITES.iter();
    for (k, sql) in MIXED_READS.iter().chain(&MIXED_READS).enumerate() {
        let outcome = db.query(sql).run().unwrap_or_else(|e| panic!("{sql}: {e}"));
        render_read(&mut out, &format!("mixed/{k:02}"), sql, &outcome);
        if k % 3 == 2 {
            if let Some(w) = writes.next() {
                let result = db.execute(w).unwrap_or_else(|e| panic!("{w}: {e}"));
                assert!(matches!(result, StatementResult::Affected(1)), "{w}: {result:?}");
                out.push_str(&format!("{{\"case\": \"mixed/write\", \"sql\": {}}},\n", quote(w)));
            }
        }
    }
    out
}

/// Renders every workload at one thread count.
fn render(threads: usize) -> String {
    let (analytic, means) = analytic(threads);
    // perfbench's `analytic` per-statement means at seed 21: pairs, sort
    // comparisons and page I/O.
    assert_eq!(means, [27930, 100626, 654], "{threads} thread(s): analytic means");
    let mut text = String::from("[\n");
    text.push_str(&analytic);
    text.push_str(&corpus(80, threads));
    text.push_str(&corpus(800, threads));
    text.push_str(&mixed(threads));
    // 8 pages give each inner partition a budget of 4: S's 13 pages split
    // into 4 partitions.
    text.push_str(&corpus_under(
        "corpus-800-partitioned",
        800,
        8,
        JoinMethod::Partitioned,
        Strategy::Unnest,
        threads,
    ));
    for (tag, strategy) in [
        ("corpus-80-nested-loop", Strategy::NestedLoop),
        ("corpus-80-materialized-nl", Strategy::MaterializedNestedLoop),
    ] {
        text.push_str(&corpus_under(tag, 80, 256, JoinMethod::Merge, strategy, threads));
    }
    for (tag, strategy) in [
        ("locals-80", Strategy::Unnest),
        ("locals-80-nested-loop", Strategy::NestedLoop),
        ("locals-80-materialized-nl", Strategy::MaterializedNestedLoop),
    ] {
        text.push_str(&locals(tag, strategy, threads));
    }
    // A trailing entry keeps every line above comma-terminated.
    text.push_str("{\"case\": \"end\"}\n]\n");
    text
}

#[test]
fn operator_counters_are_pinned_at_every_thread_count() {
    let serial = render(THREADS[0]);
    for threads in &THREADS[1..] {
        let text = render(*threads);
        let diverged = serial.lines().zip(text.lines()).position(|(a, b)| a != b);
        assert!(
            text == serial,
            "{threads} threads diverge from 1 thread at line {}",
            diverged.map_or(serial.lines().count().min(text.lines().count()), |l| l) + 1
        );
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/counters.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &serial).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `UPDATE_GOLDEN=1 cargo test --release --test \
             counter_pins` to create it",
            path.display()
        )
    });
    if let Some(line) = serial.lines().zip(expected.lines()).position(|(a, b)| a != b) {
        panic!(
            "counter drift at line {} of {}:\n  expected: {}\n  actual:   {}\nif intentional, \
             regenerate with `UPDATE_GOLDEN=1 cargo test --release --test counter_pins` and \
             give old -> new in CHANGES.md",
            line + 1,
            path.display(),
            expected.lines().nth(line).unwrap_or(""),
            serial.lines().nth(line).unwrap_or("")
        );
    }
    assert_eq!(serial, expected, "counter golden differs in length");
}
