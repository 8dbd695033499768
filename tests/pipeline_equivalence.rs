//! Pipelined chain joins at every thread count.
//!
//! The streaming operator pipeline keeps intermediate chain-join output in
//! memory for the next sort boundary instead of spilling a temp table
//! (DESIGN.md §11). Every thread count must run a chain exactly as one
//! thread does:
//!
//! * answers (values *and* degrees) bit-identical;
//! * tuples-out / fuzzy-comparison / prune / sort counters bit-identical;
//! * the same simulated page writes.

use fuzzy_db::core::Value;
use fuzzy_db::engine::{Engine, ExecConfig, Strategy};
use fuzzy_db::rel::{AttrType, Catalog, Relation, Schema, StoredTable, Tuple};
use fuzzy_db::storage::SimDisk;

/// Deterministic four-table catalog: R (8·scale), S (6·scale), T (4·scale),
/// U (3·scale), each (ID, X) with X cycling over three join values.
fn chain_db(scale: usize) -> (Catalog, SimDisk) {
    let disk = SimDisk::with_default_page_size();
    let mut catalog = Catalog::new();
    for (name, base) in [("R", 8usize), ("S", 6), ("T", 4), ("U", 3)] {
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

/// `(k, query)`: nested chains of 2, 3, and 4 tables.
const CHAINS: &[(usize, &str)] = &[
    (2, "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)"),
    (3, "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.X IN (SELECT T.X FROM T))"),
    (
        4,
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.X IN \
         (SELECT T.X FROM T WHERE T.X IN (SELECT U.X FROM U)))",
    ),
];

struct Run {
    answer: Relation,
    tuples_out: u64,
    fuzzy_comparisons: u64,
    pairs_pruned: u64,
    sort_comparisons: u64,
    writes: u64,
}

fn run(catalog: &Catalog, disk: &SimDisk, sql: &str, threads: usize) -> Run {
    let engine = Engine::over(catalog.clone().into(), disk)
        .with_config(ExecConfig { threads, ..Default::default() });
    let out = engine.run_sql(sql, Strategy::Unnest).unwrap();
    let t = out.metrics.totals();
    Run {
        answer: out.answer.canonicalized(),
        tuples_out: t.tuples_out,
        fuzzy_comparisons: t.fuzzy_comparisons,
        pairs_pruned: t.pairs_pruned,
        sort_comparisons: t.sort_comparisons,
        writes: out.measurement.io.writes,
    }
}

#[test]
fn pipelined_chains_agree_at_every_thread_count() {
    for scale in [1usize, 4] {
        for (k, sql) in CHAINS {
            let (catalog, disk) = chain_db(scale);
            let baseline = run(&catalog, &disk, sql, 1);
            assert!(!baseline.answer.is_empty(), "chain{k} scale {scale}: empty answer");
            for threads in [1usize, 2, 4, 8] {
                let label = format!("chain{k} scale {scale} threads {threads}");
                let r = run(&catalog, &disk, sql, threads);
                assert_eq!(r.answer, baseline.answer, "{label}: answer diverged from baseline");
                let bd: Vec<f64> =
                    baseline.answer.tuples().iter().map(|t| t.degree.value()).collect();
                let rd: Vec<f64> = r.answer.tuples().iter().map(|t| t.degree.value()).collect();
                assert_eq!(bd, rd, "{label}: degrees diverged");
                assert_eq!(r.tuples_out, baseline.tuples_out, "{label}: tuples_out");
                assert_eq!(
                    r.fuzzy_comparisons, baseline.fuzzy_comparisons,
                    "{label}: fuzzy_comparisons"
                );
                assert_eq!(r.pairs_pruned, baseline.pairs_pruned, "{label}: pairs_pruned");
                assert_eq!(
                    r.sort_comparisons, baseline.sort_comparisons,
                    "{label}: sort_comparisons"
                );
                assert_eq!(r.writes, baseline.writes, "{label}: writes not thread-invariant");
            }
        }
    }
}
