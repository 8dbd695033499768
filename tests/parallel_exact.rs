//! Parallel execution must be indistinguishable from serial execution in
//! everything except wall time: answer relations, degrees, pair counts,
//! sort comparisons, and simulated I/O counts are asserted exactly equal
//! for every thread count. On machines with at least four cores, the
//! threads = 4 run of the scale-8 workload must additionally beat
//! threads = 1 by at least 1.8× end to end.

use fuzzy_engine::exec::ExecConfig;
use fuzzy_engine::{Engine, OperatorMetrics, Strategy};
use fuzzy_rel::{Catalog, Relation};
use fuzzy_storage::SimDisk;
use fuzzy_workload::{generate, WorkloadSpec};
use std::time::{Duration, Instant};

const TYPE_J: &str = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)";
const FLAT_WITH_THRESHOLD: &str = "SELECT R.ID, S.ID FROM R, S WHERE R.X = S.X WITH D > 0.3";

fn workload(n: usize, seed: u64) -> (Catalog, SimDisk) {
    let disk = SimDisk::with_default_page_size();
    let w = generate(
        &disk,
        WorkloadSpec { n_outer: n, n_inner: n, fanout: 7, seed, ..Default::default() },
    )
    .unwrap();
    let mut catalog = Catalog::new();
    catalog.register(w.outer);
    catalog.register(w.inner);
    disk.reset_io();
    (catalog, disk)
}

struct Run {
    answer: Relation,
    /// The deterministic per-operator view: `(kind, label, counters)` in
    /// start order, wall time excluded.
    metrics_sig: Vec<(&'static str, String, OperatorMetrics)>,
    reads: u64,
    writes: u64,
    wall: Duration,
}

fn run(catalog: &Catalog, disk: &SimDisk, sql: &str, threads: usize, pages: usize) -> Run {
    let engine = Engine::over(catalog.clone().into(), disk).with_config(ExecConfig {
        buffer_pages: pages,
        sort_pages: pages,
        threads,
        ..Default::default()
    });
    let started = Instant::now();
    let out = engine.run_sql(sql, Strategy::Unnest).unwrap();
    let wall = started.elapsed();
    Run {
        answer: out.answer.canonicalized(),
        metrics_sig: out.metrics.deterministic(),
        reads: out.measurement.io.reads,
        writes: out.measurement.io.writes,
        wall,
    }
}

/// Everything observable except wall time must match the serial run.
fn assert_exactly_equal(serial: &Run, parallel: &Run, label: &str) {
    assert_eq!(serial.answer, parallel.answer, "{label}: answer relation diverged");
    let sd: Vec<f64> = serial.answer.tuples().iter().map(|t| t.degree.value()).collect();
    let pd: Vec<f64> = parallel.answer.tuples().iter().map(|t| t.degree.value()).collect();
    assert_eq!(sd, pd, "{label}: degrees diverged");
    assert_eq!(serial.reads, parallel.reads, "{label}: physical reads diverged");
    assert_eq!(serial.writes, parallel.writes, "{label}: physical writes diverged");
    // The whole registry — every operator's label and all thirteen counters
    // — must be bit-identical; only wall time may differ.
    assert_eq!(serial.metrics_sig, parallel.metrics_sig, "{label}: per-operator metrics diverged");
}

#[test]
fn parallel_matches_serial_across_thread_counts() {
    let (catalog, disk) = workload(2000, 7);
    for sql in [TYPE_J, FLAT_WITH_THRESHOLD] {
        let serial = run(&catalog, &disk, sql, 1, 32);
        assert!(!serial.answer.is_empty(), "workload produced an empty answer for {sql}");
        for threads in [2usize, 4, 8] {
            let parallel = run(&catalog, &disk, sql, threads, 32);
            assert_exactly_equal(&serial, &parallel, &format!("{sql} @ threads={threads}"));
        }
    }
}

#[test]
fn scale8_threads4_speedup_with_exact_equality() {
    // The experiments binary's default scale is 8; its 8 MB leg is then
    // n = 8 × 8000 / 8 = 8000 tuples per relation with the scaled 32-page
    // buffer — the "scale-8 workload".
    let (catalog, disk) = workload(8000, 11);
    let best = |threads: usize| -> Run {
        let a = run(&catalog, &disk, TYPE_J, threads, 32);
        let b = run(&catalog, &disk, TYPE_J, threads, 32);
        if a.wall <= b.wall {
            a
        } else {
            b
        }
    };
    let serial = best(1);
    let parallel = best(4);
    assert_exactly_equal(&serial, &parallel, "scale-8 type J @ threads=4");

    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    if cores >= 4 {
        let speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
        assert!(
            speedup >= 1.8,
            "threads=4 speedup {speedup:.2}× below the 1.8× bar \
             (serial {:?}, parallel {:?})",
            serial.wall,
            parallel.wall
        );
    } else {
        eprintln!(
            "note: only {cores} core(s) available; the ≥1.8× wall-time assertion \
             needs 4 and was skipped (exact-equality assertions still ran)"
        );
    }
}
