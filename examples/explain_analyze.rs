//! EXPLAIN ANALYZE of Query N′ on the scale-8 workload — the walkthrough of
//! EXPERIMENTS.md's observability section.
//!
//! ```sh
//! cargo run --release --example explain_analyze
//! ```

use fuzzy_db::engine::{exec::ExecConfig, Engine, Strategy};
use fuzzy_db::rel::Catalog;
use fuzzy_db::sql::ExplainMode;
use fuzzy_db::storage::SimDisk;
use fuzzy_db::workload::{generate, WorkloadSpec};

fn main() {
    // The experiments binary's scale-8 defaults: n = 8 MB / 8 = 8000 tuples
    // per relation, 32-page buffer and sort budgets.
    let disk = SimDisk::with_default_page_size();
    let spec = WorkloadSpec {
        n_outer: 8000,
        n_inner: 8000,
        tuple_bytes: 128,
        fanout: 7,
        seed: 8008,
        ..Default::default()
    };
    let w = generate(&disk, spec).expect("workload");
    let mut catalog = Catalog::new();
    catalog.register(w.outer.clone());
    catalog.register(w.inner.clone());
    disk.reset_io();

    let engine = Engine::over(catalog.clone().into(), &disk).with_config(ExecConfig {
        buffer_pages: 32,
        sort_pages: 32,
        ..Default::default()
    });
    // Query N of Section 4, already unnested by the engine to Query N′.
    let sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)";
    let q = fuzzy_db::sql::parse(sql).expect("parse");
    let (text, outcome) =
        engine.explain(&q, Strategy::Unnest, ExplainMode::Analyze).expect("explain analyze");
    let outcome = outcome.expect("EXPLAIN ANALYZE runs the statement");
    println!("EXPLAIN ANALYZE {sql}\n");
    println!("{text}");
    println!(
        "totals: {} fuzzy comparisons, {} pairs examined, {} physical reads + {} writes",
        outcome.metrics.totals().fuzzy_comparisons,
        outcome.metrics.totals().pairs_examined,
        outcome.measurement.io.reads,
        outcome.measurement.io.writes
    );
}
