//! Property test: for randomly generated relations and any worker-thread
//! count in {1, 2, 4, 8}, parallel execution returns exactly the serial
//! result set and degrees, and charges exactly the same cost counters.

use fuzzy_engine::exec::ExecConfig;
use fuzzy_engine::{Engine, Strategy};
use fuzzy_rel::Catalog;
use fuzzy_storage::SimDisk;
use fuzzy_workload::{generate, WorkloadSpec};
use proptest::prelude::*;

const TYPE_J: &str = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)";
const FLAT_WITH_THRESHOLD: &str = "SELECT R.ID, S.ID FROM R, S WHERE R.X = S.X WITH D > 0.4";

fn build(
    n_outer: usize,
    n_inner: usize,
    fanout: usize,
    fuzzy_fraction: f64,
    seed: u64,
) -> (Catalog, SimDisk) {
    let disk = SimDisk::with_default_page_size();
    let w = generate(
        &disk,
        WorkloadSpec { n_outer, n_inner, fanout, fuzzy_fraction, seed, ..Default::default() },
    )
    .unwrap();
    let mut catalog = Catalog::new();
    catalog.register(w.outer);
    catalog.register(w.inner);
    disk.reset_io();
    (catalog, disk)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_execution_equals_serial(
        n_outer in 1usize..48,
        n_inner in 1usize..48,
        fanout in 1usize..6,
        fuzzy_tenths in 0u32..=10,
        seed in 0u64..1_000_000,
    ) {
        let (catalog, disk) =
            build(n_outer, n_inner, fanout, fuzzy_tenths as f64 / 10.0, seed);
        for sql in [TYPE_J, FLAT_WITH_THRESHOLD] {
            let run = |threads: usize| {
                let engine = Engine::over(catalog.clone().into(), &disk).with_config(ExecConfig {
                    buffer_pages: 4, // tiny budgets force spills and merge passes
                    sort_pages: 4,
                    threads,
                    ..Default::default()
                });
                let out = engine.run_sql(sql, Strategy::Unnest).expect("query runs");
                (
                    out.answer.canonicalized(),
                    out.metrics.totals().pairs_examined,
                    out.metrics.totals().sort_comparisons,
                    out.metrics.totals().sort_runs,
                    out.measurement.io.reads,
                    out.measurement.io.writes,
                )
            };
            let serial = run(1);
            for threads in [2usize, 4, 8] {
                let parallel = run(threads);
                prop_assert_eq!(&serial.0, &parallel.0);
                prop_assert_eq!(serial.1, parallel.1);
                prop_assert_eq!(serial.2, parallel.2);
                prop_assert_eq!(serial.3, parallel.3);
                prop_assert_eq!(serial.4, parallel.4);
                prop_assert_eq!(serial.5, parallel.5);
            }
        }
    }
}
