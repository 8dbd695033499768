//! Regenerates every table and figure of the paper's evaluation (Section 9).
//!
//! ```sh
//! cargo run -p bench --release --bin experiments -- [--scale S] [--table1]
//!     [--table2] [--table3] [--table4] [--fig1] [--fig2] [--fig3]
//!     [--ablation-dangling] [--page-io-ms MS] [--nl-pair-budget N]
//!     [--threads T] [--parallel] [--sessions] [--metrics-json FILE] [--all]
//! ```
//!
//! `--threads T` sets the worker-thread count every merge-join leg runs
//! with (default 1, the serial engine). `--parallel` sweeps the scale-8
//! type J leg over 1/2/4/8 threads and writes the machine-readable
//! `BENCH_parallel.json` next to the working directory.
//!
//! `--sessions` sweeps concurrent *sessions* instead of worker threads:
//! 1/2/4/8 sessions share one database handle and replay a three-query
//! statement list against the shared plan cache. Answers are checked
//! bit-for-bit against a serial replay and the sweep reports wall time,
//! plan-cache hits/misses, and catalog lock wait (`BENCH_sessions.json`).
//!
//! `--metrics-json FILE` runs the canonical type J leg once under the
//! scaled configuration and dumps the per-operator metrics registry (the
//! `EXPLAIN ANALYZE` counters) as JSON to `FILE`.
//!
//! With `--scale S` every tuple count is divided by `S` (default 8, so the
//! suite completes in minutes; `--scale 1` reproduces the paper's exact
//! sizes for the merge-join legs). Nested-loop legs whose predicted pair
//! count exceeds the budget are *projected* from the measured per-pair cost
//! and printed with a `*` — the paper prints "—" there (its 16 MB nested
//! loop would have taken ~17 hours of 1995 CPU).

use bench::{analytic, build_workload, paper_config, run_leg, run_leg_sql};
use fuzzy_engine::exec::ExecConfig;
use fuzzy_engine::Strategy;
use fuzzy_storage::CostModel;
use fuzzy_workload::WorkloadSpec;
use std::time::Duration;

struct Args {
    scale: usize,
    page_io_ms: u64,
    nl_pair_budget: u64,
    threads: usize,
    metrics_json: Option<String>,
    run: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 8,
        page_io_ms: 1,
        nl_pair_budget: 150_000_000,
        threads: 1,
        metrics_json: None,
        run: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = it.next().expect("--scale N").parse().expect("number"),
            "--metrics-json" => args.metrics_json = Some(it.next().expect("--metrics-json FILE")),
            "--threads" => {
                args.threads =
                    it.next().expect("--threads T").parse::<usize>().expect("number").max(1)
            }
            "--page-io-ms" => {
                args.page_io_ms = it.next().expect("--page-io-ms MS").parse().expect("number")
            }
            "--nl-pair-budget" => {
                args.nl_pair_budget =
                    it.next().expect("--nl-pair-budget N").parse().expect("number")
            }
            "--all" => args.run.push("all".into()),
            flag if flag.starts_with("--") => args.run.push(flag[2..].to_string()),
            other => panic!("unknown argument {other:?}"),
        }
    }
    if args.run.is_empty() && args.metrics_json.is_none() {
        args.run.push("all".into());
    }
    args
}

fn wants(args: &Args, name: &str) -> bool {
    args.run.iter().any(|r| r == name || r == "all")
}

/// The paper's 2 MB buffer scaled with the workload, preserving the
/// buffer-to-relation ratio (what drives the sort-pass counts and the
/// nested-loop block size).
fn scaled_config(args: &Args) -> ExecConfig {
    let pages = (256 / args.scale.max(1)).max(8);
    ExecConfig {
        buffer_pages: pages,
        sort_pages: pages,
        threads: args.threads,
        ..Default::default()
    }
}

fn main() {
    let args = parse_args();
    let model = CostModel::new(Duration::from_millis(args.page_io_ms));
    println!(
        "# Reproducing Section 9 (scale 1/{}, page I/O {} ms, NL pair budget {})\n",
        args.scale, args.page_io_ms, args.nl_pair_budget
    );
    if wants(&args, "fig1") {
        fig1();
    }
    if wants(&args, "fig2") {
        fig2();
    }
    if wants(&args, "table1") {
        table1(&args, &model);
    }
    if wants(&args, "table2") {
        table2_and_3(&args, &model);
    }
    if wants(&args, "table4") {
        table4(&args, &model);
    }
    if wants(&args, "fig3") {
        fig3(&args, &model);
    }
    if wants(&args, "ablation-dangling") {
        ablation_dangling(&args);
    }
    if wants(&args, "ablation-agg-degree") {
        ablation_agg_degree(&args);
    }
    if wants(&args, "ablation-join-order") {
        ablation_join_order(&args);
    }
    if wants(&args, "ablation-threshold") {
        ablation_threshold(&args);
    }
    if wants(&args, "ablation-join-method") {
        ablation_join_method(&args);
    }
    if wants(&args, "ablation-materialized") {
        ablation_materialized(&args, &model);
    }
    if wants(&args, "parallel") {
        parallel_sweep(&args);
    }
    if wants(&args, "sessions") {
        sessions_sweep(&args);
    }
    if let Some(path) = args.metrics_json.clone() {
        metrics_json_dump(&args, &path);
    }
}

// ---------------------------------------------------------------------------
// --metrics-json: dump the per-operator registry of one type J leg
// ---------------------------------------------------------------------------

fn metrics_json_dump(args: &Args, path: &str) {
    use fuzzy_engine::Engine;
    println!("## Per-operator metrics — canonical type J leg\n");
    let n = 8 * 8000 / args.scale.max(1);
    let spec = WorkloadSpec {
        n_outer: n,
        n_inner: n,
        tuple_bytes: 128,
        fanout: 7,
        seed: 8000 + args.scale as u64,
        ..Default::default()
    };
    let (catalog, disk) = build_workload(spec);
    let engine = Engine::over(catalog.clone().into(), &disk).with_config(scaled_config(args));
    let out = engine.run_sql(bench::TYPE_J_SQL, Strategy::Unnest).expect("metrics leg");
    match std::fs::write(path, out.metrics.to_json()) {
        Ok(()) => {
            println!("wrote per-operator metrics ({} ops) to {path}\n", out.metrics.ops().len())
        }
        Err(e) => println!("could not write {path}: {e}\n"),
    }
}

// ---------------------------------------------------------------------------
// Parallel sweep: the scale-8 type J leg across worker threads
// ---------------------------------------------------------------------------

fn parallel_sweep(args: &Args) {
    use std::time::Instant;
    println!("## Parallel — type J leg across worker threads (exact-equality");
    println!("   parallelism: answers and all cost counters are identical to");
    println!("   threads = 1; only wall time changes)\n");
    let n = 8 * 8000 / args.scale.max(1);
    let spec = WorkloadSpec {
        n_outer: n,
        n_inner: n,
        tuple_bytes: 128,
        fanout: 7,
        seed: 8000 + args.scale as u64,
        ..Default::default()
    };
    let (catalog, disk) = build_workload(spec);
    println!(
        "{:>8} {:>12} {:>14} {:>8} {:>8} {:>12} {:>8}",
        "threads", "wall (s)", "sort CPU (s)", "reads", "writes", "pairs", "rows"
    );
    let mut legs = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let config = ExecConfig { threads, ..scaled_config(args) };
        let started = Instant::now();
        let leg = run_leg(&catalog, &disk, Strategy::Unnest, config);
        let wall = started.elapsed();
        println!(
            "{:>8} {:>12.3} {:>14.3} {:>8} {:>8} {:>12} {:>8}",
            threads,
            wall.as_secs_f64(),
            leg.sort_cpu.as_secs_f64(),
            leg.io.reads,
            leg.io.writes,
            leg.pairs,
            leg.answer_rows
        );
        legs.push((threads, wall, leg));
    }
    // Machine-readable dump (hand-rolled JSON: the build is offline and the
    // numbers are flat).
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": {{\"query\": \"type_j\", \"n_outer\": {n}, \"n_inner\": {n}, \
         \"tuple_bytes\": 128, \"fanout\": 7, \"scale\": {}, \"seed\": {}}},\n",
        args.scale, spec.seed
    ));
    json.push_str("  \"legs\": [\n");
    for (i, (threads, wall, leg)) in legs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"wall_secs\": {:.6}, \"sort_cpu_secs\": {:.6}, \
             \"reads\": {}, \"writes\": {}, \"sort_io\": {}, \"pairs\": {}, \
             \"answer_rows\": {}}}{}\n",
            threads,
            wall.as_secs_f64(),
            leg.sort_cpu.as_secs_f64(),
            leg.io.reads,
            leg.io.writes,
            leg.sort_io,
            leg.pairs,
            leg.answer_rows,
            if i + 1 < legs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => println!("\nwrote BENCH_parallel.json\n"),
        Err(e) => println!("\ncould not write BENCH_parallel.json: {e}\n"),
    }
}

// ---------------------------------------------------------------------------
// Session sweep: concurrent sessions sharing one database handle
// ---------------------------------------------------------------------------

/// The statement list every session replays: the canonical type J leg plus
/// a type N and a flat join over the same tables, so the shared plan cache
/// holds several distinct entries and hits interleave with misses.
const SESSION_CORPUS: &[&str] = &[
    bench::TYPE_J_SQL,
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)",
    "SELECT R.ID FROM R, S WHERE R.X = S.X WITH D > 0.3",
];

fn sessions_sweep(args: &Args) {
    use fuzzy_db::Database;
    use std::sync::{Arc, Barrier};
    use std::time::Instant;

    const ROUNDS: usize = 2;
    println!("## Sessions — statement list across concurrent sessions sharing");
    println!("   one database handle (answers are bit-identical to a serial");
    println!("   replay; every session shares the catalog and plan cache)\n");
    let n = (8 * 4000 / args.scale.max(1)).max(64);
    let spec = WorkloadSpec {
        n_outer: n,
        n_inner: n,
        tuple_bytes: 128,
        fanout: 7,
        seed: 8000 + args.scale as u64,
        ..Default::default()
    };
    // One worker thread per engine: the parallelism under test is sessions.
    let config = ExecConfig { threads: 1, ..scaled_config(args) };

    // Serial reference answers, computed once on a private handle.
    let (catalog, disk) = build_workload(spec);
    let mut reference_db = Database::from_catalog(catalog, disk);
    reference_db.set_exec_config(config);
    let reference: Vec<_> = SESSION_CORPUS
        .iter()
        .map(|sql| reference_db.query(*sql).collect().expect("reference leg").canonicalized())
        .collect();

    println!(
        "{:>9} {:>12} {:>11} {:>8} {:>8} {:>8} {:>15} {:>6}",
        "sessions", "wall (s)", "statements", "hits", "misses", "entries", "lock wait (ms)", "peak"
    );
    let mut legs = Vec::new();
    for sessions in [1usize, 2, 4, 8] {
        // A fresh handle per sweep point so the cache and counters start cold.
        let (catalog, disk) = build_workload(spec);
        let mut db = Database::from_catalog(catalog, disk);
        db.set_exec_config(config);
        let barrier = Arc::new(Barrier::new(sessions));
        let started = Instant::now();
        std::thread::scope(|scope| {
            for s in 0..sessions {
                let session = db.session();
                let barrier = Arc::clone(&barrier);
                let reference = &reference;
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..ROUNDS {
                        for i in 0..SESSION_CORPUS.len() {
                            // Offset schedules per session and round so cache
                            // hits and misses interleave across sessions.
                            let idx = (i + s + round) % SESSION_CORPUS.len();
                            let ans =
                                session.query(SESSION_CORPUS[idx]).collect().expect("session leg");
                            assert!(
                                ans.canonicalized() == reference[idx],
                                "session answer diverged from the serial replay \
                                 (sessions = {sessions}, statement {idx})"
                            );
                        }
                    }
                });
            }
        });
        let wall = started.elapsed();
        let stats = db.plan_cache_stats();
        let counters = db.serving_counters();
        let statements = counters.statements();
        let lock_wait = counters.lock_wait();
        let peak = counters.peak_in_flight();
        println!(
            "{:>9} {:>12.3} {:>11} {:>8} {:>8} {:>8} {:>15.3} {:>6}",
            sessions,
            wall.as_secs_f64(),
            statements,
            stats.hits,
            stats.misses,
            stats.entries,
            lock_wait.as_secs_f64() * 1e3,
            peak
        );
        legs.push((sessions, wall, statements, stats, lock_wait, peak));
    }
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": {{\"statements\": {}, \"rounds\": {ROUNDS}, \"n_outer\": {n}, \
         \"n_inner\": {n}, \"tuple_bytes\": 128, \"fanout\": 7, \"scale\": {}, \"seed\": {}}},\n",
        SESSION_CORPUS.len(),
        args.scale,
        spec.seed
    ));
    json.push_str("  \"legs\": [\n");
    for (i, (sessions, wall, statements, stats, lock_wait, peak)) in legs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"sessions\": {}, \"wall_secs\": {:.6}, \"statements\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_invalidations\": {}, \
             \"cache_entries\": {}, \"lock_wait_secs\": {:.6}, \"peak_in_flight\": {}}}{}\n",
            sessions,
            wall.as_secs_f64(),
            statements,
            stats.hits,
            stats.misses,
            stats.invalidations,
            stats.entries,
            lock_wait.as_secs_f64(),
            peak,
            if i + 1 < legs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::write("BENCH_sessions.json", &json) {
        Ok(()) => println!("\nwrote BENCH_sessions.json\n"),
        Err(e) => println!("\ncould not write BENCH_sessions.json: {e}\n"),
    }
}

/// A calibration of nested-loop per-pair CPU cost, reused for projections.
struct NlCalibration {
    per_pair: Duration,
}

fn calibrate_nl(tuple_bytes: usize, config: ExecConfig) -> NlCalibration {
    let spec =
        WorkloadSpec { n_outer: 2000, n_inner: 2000, tuple_bytes, fanout: 7, ..Default::default() };
    let (catalog, disk) = build_workload(spec);
    let leg = run_leg(&catalog, &disk, Strategy::NestedLoop, config);
    NlCalibration { per_pair: leg.cpu / (leg.pairs.max(1) as u32) }
}

/// Runs (or projects) the nested-loop leg for a spec.
fn nl_leg(
    spec: WorkloadSpec,
    catalog: &fuzzy_rel::Catalog,
    disk: &fuzzy_storage::SimDisk,
    args: &Args,
    model: &CostModel,
    cal: &NlCalibration,
    config: ExecConfig,
) -> (Duration, bool) {
    let pairs = analytic::nested_loop_pairs(spec.n_outer as u64, spec.n_inner as u64);
    if pairs <= args.nl_pair_budget {
        let leg = run_leg(catalog, disk, Strategy::NestedLoop, config);
        (leg.response(model), false)
    } else {
        // Project: CPU from the calibrated per-pair cost; I/O from the
        // paper's block formula with the configured buffer size M.
        let bytes_per_page = 8192 / spec.tuple_bytes.max(1);
        let b_r = (spec.n_outer / bytes_per_page.max(1)) as u64 + 1;
        let b_s = (spec.n_inner / bytes_per_page.max(1)) as u64 + 1;
        let ios = analytic::nested_loop_ios(b_r, b_s, config.buffer_pages as u64);
        let cpu = cal.per_pair * (pairs.min(u32::MAX as u64) as u32)
            + Duration::from_secs_f64(
                cal.per_pair.as_secs_f64() * (pairs.saturating_sub(u32::MAX as u64)) as f64,
            );
        (cpu + model.page_io * (ios as u32), true)
    }
}

fn fmt_secs(d: Duration, projected: bool) -> String {
    format!("{:>9.1}{}", d.as_secs_f64(), if projected { "*" } else { " " })
}

// ---------------------------------------------------------------------------
// Fig. 1: membership functions of "medium young" and "about 35"
// ---------------------------------------------------------------------------

fn fig1() {
    use fuzzy_core::Vocabulary;
    println!("## Fig. 1 — membership functions (sampled)\n");
    let v = Vocabulary::paper();
    let my = v.resolve("medium young").unwrap();
    let a35 = v.resolve("about 35").unwrap();
    println!("{:>5} {:>14} {:>10}", "age", "medium_young", "about_35");
    let mut x = 18.0;
    while x <= 42.0 {
        println!("{:>5} {:>14.2} {:>10.2}", x, my.membership(x).value(), a35.membership(x).value());
        x += 1.0;
    }
    let d = fuzzy_core::possibility(&my, fuzzy_core::CmpOp::Eq, &a35);
    println!("\nintersection height d(medium young = about 35) = {} (paper: 0.5)\n", d);
}

// ---------------------------------------------------------------------------
// Fig. 2 / Example 4.1: the running example end to end
// ---------------------------------------------------------------------------

fn fig2() {
    use fuzzy_engine::Engine;
    use fuzzy_storage::SimDisk;
    println!("## Fig. 2 / Example 4.1 — the running example\n");
    let disk = SimDisk::with_default_page_size();
    let catalog = fuzzy_workload::paper::dating_service(&disk).unwrap();
    let engine = Engine::over(catalog.clone().into(), &disk);
    let t = engine
        .run_sql("SELECT M.INCOME FROM M WHERE M.AGE = 'middle age'", Strategy::Unnest)
        .unwrap();
    println!("T (inner block):\n{}", t.answer);
    let answer = engine
        .run_sql(
            "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
             (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')",
            Strategy::Unnest,
        )
        .unwrap();
    println!("Answer (paper prints Ann 0.7, Betty 0.7):\n{}", answer.answer);
}

// ---------------------------------------------------------------------------
// Table 1: response times, both relations 1 -> 32 MB
// ---------------------------------------------------------------------------

fn table1(args: &Args, model: &CostModel) {
    println!("## Table 1 — response time (s), both relations 1→32 MB, C = 7");
    println!("   (paper: NL 501/1965/7754/30879/—/—; MJ 40/84/223/852/1897/3733;");
    println!("    speedup 12.5/23.4/34.8/36.2; * = projected beyond the pair budget)\n");
    let config = scaled_config(args);
    let cal = calibrate_nl(128, config);
    println!("{:<16} {:>10} {:>10} {:>8}", "relation size", "nested", "merge", "speedup");
    for mb in [1usize, 2, 4, 8, 16, 32] {
        let n = mb * 8000 / args.scale;
        let spec = WorkloadSpec {
            n_outer: n,
            n_inner: n,
            tuple_bytes: 128,
            fanout: 7,
            seed: 1000 + mb as u64,
            ..Default::default()
        };
        let (catalog, disk) = build_workload(spec);
        let mj = run_leg(&catalog, &disk, Strategy::Unnest, config);
        let mj_rt = mj.response(model);
        let (nl_rt, projected) = nl_leg(spec, &catalog, &disk, args, model, &cal, config);
        println!(
            "{:<16} {} {} {:>8.1}",
            format!("{mb} MB (n={n})"),
            fmt_secs(nl_rt, projected),
            fmt_secs(mj_rt, false),
            nl_rt.as_secs_f64() / mj_rt.as_secs_f64().max(1e-9),
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Tables 2 and 3: fixed 4 MB outer, inner 2 -> 16 MB, plus the breakdown
// ---------------------------------------------------------------------------

fn table2_and_3(args: &Args, model: &CostModel) {
    println!("## Table 2 — outer fixed 4 MB, inner 2→16 MB (paper: NL grows");
    println!("   linearly 3912→31049; MJ 156→2152; speedup peaks at 4 MB)\n");
    let config = scaled_config(args);
    let cal = calibrate_nl(128, config);
    let n_outer = 4 * 8000 / args.scale;
    let mut breakdown: Vec<(usize, f64, f64)> = Vec::new();
    println!("{:<16} {:>10} {:>10} {:>8}", "inner size", "nested", "merge", "speedup");
    for mb in [2usize, 4, 8, 16] {
        let n_inner = mb * 8000 / args.scale;
        let spec = WorkloadSpec {
            n_outer,
            n_inner,
            tuple_bytes: 128,
            fanout: 7,
            seed: 2000 + mb as u64,
            ..Default::default()
        };
        let (catalog, disk) = build_workload(spec);
        let mj = run_leg(&catalog, &disk, Strategy::Unnest, config);
        let mj_rt = mj.response(model);
        breakdown.push((mb, mj.cpu_share(model), mj.sort_share(model)));
        let (nl_rt, projected) = nl_leg(spec, &catalog, &disk, args, model, &cal, config);
        println!(
            "{:<16} {} {} {:>8.1}",
            format!("{mb} MB (n={n_inner})"),
            fmt_secs(nl_rt, projected),
            fmt_secs(mj_rt, false),
            nl_rt.as_secs_f64() / mj_rt.as_secs_f64().max(1e-9),
        );
    }
    println!("\n## Table 3 — merge-join time breakdown (paper: CPU% 76/63/51/24;");
    println!("   sorting% 38.7/52.5/61.9/84.1)\n");
    println!("{:<16} {:>8} {:>10}", "inner size", "CPU %", "sorting %");
    for (mb, cpu_share, sort_share) in breakdown {
        println!(
            "{:<16} {:>8.0} {:>10.1}",
            format!("{mb} MB"),
            cpu_share * 100.0,
            sort_share * 100.0
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Table 4: tuple size 128 -> 2048 bytes, n = 8000 fixed, C = 1
// ---------------------------------------------------------------------------

fn table4(args: &Args, model: &CostModel) {
    println!("## Table 4 — tuple size sweep, n = 8000, C = 1 (paper: NL");
    println!("   485/514/584/729/1077; MJ 20/37/94/487/896).");
    println!("   Runs at the paper's true n = 8000 regardless of --scale");
    println!("   (the nested loop is 64M pairs, feasible on a modern CPU).\n");
    let n = 8000;
    let config = ExecConfig { threads: args.threads, ..paper_config() };
    println!("{:<12} {:>10} {:>10} {:>8}", "tuple bytes", "nested", "merge", "speedup");
    for tuple_bytes in [128usize, 256, 512, 1024, 2048] {
        let spec = WorkloadSpec {
            n_outer: n,
            n_inner: n,
            tuple_bytes,
            fanout: 1,
            seed: 4000 + tuple_bytes as u64,
            ..Default::default()
        };
        let cal = calibrate_nl(tuple_bytes, config);
        let (catalog, disk) = build_workload(spec);
        let mj = run_leg(&catalog, &disk, Strategy::Unnest, config);
        let mj_rt = mj.response(model);
        let (nl_rt, projected) = nl_leg(spec, &catalog, &disk, args, model, &cal, config);
        println!(
            "{:<12} {} {} {:>8.1}",
            tuple_bytes,
            fmt_secs(nl_rt, projected),
            fmt_secs(mj_rt, false),
            nl_rt.as_secs_f64() / mj_rt.as_secs_f64().max(1e-9),
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Fig. 3: fan-out C = 1 -> 128 at 8 MB / 8 MB, merge-join
// ---------------------------------------------------------------------------

fn fig3(args: &Args, model: &CostModel) {
    println!("## Fig. 3 — merge-join vs join number C at 8 MB/8 MB (paper:");
    println!("   #IOs roughly flat, CPU and response time grow with C)\n");
    let n = 8 * 8000 / args.scale;
    println!(
        "{:>5} {:>10} {:>12} {:>14} {:>12} {:>10}",
        "C", "IOs", "CPU (s)", "response (s)", "pairs", "max Rng(r)"
    );
    for c in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let spec = WorkloadSpec {
            n_outer: n,
            n_inner: n,
            tuple_bytes: 128,
            fanout: c,
            seed: 3000 + c as u64,
            ..Default::default()
        };
        let (catalog, disk) = build_workload(spec);
        let mj = run_leg(&catalog, &disk, Strategy::Unnest, scaled_config(args));
        println!(
            "{:>5} {:>10} {:>12.2} {:>14.2} {:>12} {:>10}",
            c,
            mj.io.total(),
            mj.cpu.as_secs_f64(),
            mj.response(model).as_secs_f64(),
            mj.pairs,
            mj.max_window
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Ablation: dangling tuples in Rng(r) as vagueness grows (Section 3 caveat)
// ---------------------------------------------------------------------------

fn ablation_dangling(args: &Args) {
    println!("## Ablation — dangling tuples in Rng(r) as intervals widen");
    println!("   (Section 3: wide supports put tuples in the window that never");
    println!("    join; the merge-join degrades toward quadratic scanning)\n");
    let n = 16000 / args.scale.max(1);
    println!("{:>10} {:>12} {:>14} {:>10}", "vagueness", "pairs", "positive joins", "waste %");
    // A flat join projecting both keys: the answer cardinality counts the
    // pairs that actually join positively, so waste = dangling fraction.
    let sql = "SELECT R.ID, S.ID FROM R, S WHERE R.X = S.X";
    for vagueness in [0.1f64, 0.45, 1.0, 2.0] {
        let spec = WorkloadSpec {
            n_outer: n,
            n_inner: n,
            fanout: 7,
            vagueness,
            fuzzy_fraction: 1.0,
            seed: 77,
            ..Default::default()
        };
        let (catalog, disk) = build_workload(spec);
        let mj = run_leg_sql(&catalog, &disk, Strategy::Unnest, scaled_config(args), sql);
        let useful = mj.answer_rows.max(1);
        println!(
            "{:>10.2} {:>12} {:>14} {:>9.1}%",
            vagueness,
            mj.pairs,
            useful,
            100.0 * (1.0 - useful as f64 / mj.pairs.max(1) as f64)
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Ablation: D(A(r)) semantics — Fuzzy SQL's 1 vs mean membership (Section 6)
// ---------------------------------------------------------------------------

fn ablation_agg_degree(args: &Args) {
    use fuzzy_engine::plan::{AggDegree, UnnestPlan};
    use fuzzy_engine::{build_plan, Executor, VerifiedPlan};
    println!("## Ablation — aggregate-result degree D(A(r)) (Section 6 notes the");
    println!("   alternative of average membership degrees; Fuzzy SQL fixes 1)\n");
    let n = 4000 / args.scale.max(1);
    let spec = WorkloadSpec { n_outer: n, n_inner: n, fanout: 7, seed: 11, ..Default::default() };
    let (catalog, disk) = build_workload(spec);
    let q = fuzzy_sql::parse(
        "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)",
    )
    .unwrap();
    let mut plan = build_plan(&q, &catalog).unwrap();
    let mut run_with = |deg: AggDegree| {
        if let UnnestPlan::Agg(p) = &mut plan {
            p.agg_degree = deg;
        }
        // The edited plan never passes through `Engine::plan_for`, so it
        // is lowered and verified here: the executor runs only verified trees.
        let verified = VerifiedPlan::new(&plan, Strategy::Unnest, &paper_config(), &catalog, None)
            .unwrap_or_else(|e| panic!("edited plan fails verification: {e}"));
        let (answer, _) = Executor::new(&disk, paper_config()).run(&verified, &catalog).unwrap();
        let mean: f64 = answer.tuples().iter().map(|t| t.degree.value()).sum::<f64>()
            / answer.len().max(1) as f64;
        (answer.len(), mean)
    };
    let (rows_one, mean_one) = run_with(AggDegree::One);
    let (rows_mean, mean_mean) = run_with(AggDegree::MeanMembership);
    println!("{:<22} {:>8} {:>14}", "D(A(r)) semantics", "rows", "mean degree");
    println!("{:<22} {:>8} {:>14.3}", "1 (Fuzzy SQL)", rows_one, mean_one);
    println!("{:<22} {:>8} {:>14.3}", "mean membership", rows_mean, mean_mean);
    println!(
        "\nmean-membership degrees are never higher (the group degree joins the\n\
         min-conjunction): {:.3} <= {:.3}\n",
        mean_mean, mean_one
    );
}

// ---------------------------------------------------------------------------
// Ablation: join-order optimization for chain queries (Section 8)
// ---------------------------------------------------------------------------

fn ablation_join_order(args: &Args) {
    use fuzzy_engine::exec::ExecConfig;
    use fuzzy_engine::{Engine, Strategy};
    use fuzzy_rel::Catalog;
    use fuzzy_storage::SimDisk;
    println!("## Ablation — Section 8's join-order step for chain queries");
    println!("   (tables of very different sizes; FROM order is worst-case)\n");
    let scale = args.scale.max(1);
    let disk = SimDisk::with_default_page_size();
    // A big outer table and two small inner ones; the FROM order starts big.
    let big = fuzzy_workload::generate(
        &disk,
        WorkloadSpec {
            n_outer: 16000 / scale,
            n_inner: 1000 / scale,
            fanout: 4,
            seed: 5,
            ..Default::default()
        },
    )
    .unwrap();
    let small = fuzzy_workload::generate(
        &disk,
        WorkloadSpec {
            n_outer: 800 / scale,
            n_inner: 800 / scale,
            fanout: 4,
            seed: 6,
            ..Default::default()
        },
    )
    .unwrap();
    let mut catalog = Catalog::new();
    catalog.register(big.outer.with_file("A", big.outer.file().clone()));
    catalog.register(big.inner.with_file("B", big.inner.file().clone()));
    catalog.register(small.outer.with_file("C", small.outer.file().clone()));
    // Chain on the grid-valued X attribute so every level joins.
    let sql = "SELECT A.ID FROM A WHERE A.X IN \
               (SELECT B.X FROM B WHERE B.X IN \
                (SELECT C.X FROM C WHERE C.V >= 0))";
    println!("{:<12} {:>8} {:>8} {:>12} {:>8}", "reorder", "reads", "writes", "pairs", "rows");
    for reorder in [false, true] {
        disk.reset_io();
        let engine = Engine::over(catalog.clone().into(), &disk).with_config(ExecConfig {
            buffer_pages: 64,
            sort_pages: 64,
            reorder_joins: reorder,
            threads: args.threads,
            ..Default::default()
        });
        let out = engine.run_sql(sql, Strategy::Unnest).unwrap();
        println!(
            "{:<12} {:>8} {:>8} {:>12} {:>8}",
            reorder,
            out.measurement.io.reads,
            out.measurement.io.writes,
            out.metrics.totals().pairs_examined,
            out.answer.len()
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Ablation: WITH-threshold push-down into the merge window ([42] direction)
// ---------------------------------------------------------------------------

fn ablation_threshold(args: &Args) {
    use fuzzy_engine::exec::ExecConfig;
    use fuzzy_engine::{Engine, Strategy};
    println!("## Ablation — pushing WITH D > z into the merge window");
    println!("   (d(x = y) >= z exactly when the z-cuts intersect: the");
    println!("    equality-indicator idea of the paper's reference [42])\n");
    let n = 16000 / args.scale.max(1);
    let spec = WorkloadSpec {
        n_outer: n,
        n_inner: n,
        fanout: 7,
        fuzzy_fraction: 1.0,
        vagueness: 0.45,
        seed: 21,
        ..Default::default()
    };
    let (catalog, disk) = build_workload(spec);
    println!("{:>6} {:>10} {:>12} {:>12} {:>8}", "z", "pushdown", "pairs", "sort cmps", "rows");
    for z in ["0", "0.5", "0.9"] {
        let sql = format!("SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) WITH D > {z}");
        for pushdown in [false, true] {
            let engine = Engine::over(catalog.clone().into(), &disk).with_config(ExecConfig {
                threshold_pushdown: pushdown,
                threads: args.threads,
                ..Default::default()
            });
            let out = engine.run_sql(&sql, Strategy::Unnest).unwrap();
            println!(
                "{:>6} {:>10} {:>12} {:>12} {:>8}",
                z,
                pushdown,
                out.metrics.totals().pairs_examined,
                out.metrics.totals().sort_comparisons,
                out.answer.len()
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------------------
// Ablation: merge-join vs the sampling-based partitioned join
// ---------------------------------------------------------------------------

fn ablation_join_method(args: &Args) {
    use fuzzy_engine::exec::{ExecConfig, JoinMethod};
    use fuzzy_engine::{Engine, Strategy};
    println!("## Ablation — extended merge-join vs sampling-based partitioned");
    println!("   join (Section 3: \"partitioned joins based on sampling are");
    println!("    suggested... more research is needed\")\n");
    let n = 32000 / args.scale.max(1);
    println!(
        "{:<10} {:<13} {:>8} {:>8} {:>10} {:>12} {:>8}",
        "workload", "method", "reads", "writes", "cpu (ms)", "pairs", "rows"
    );
    for (wname, skew) in [("uniform", 0.0f64), ("zipf(1.2)", 1.2)] {
        let spec = WorkloadSpec {
            n_outer: n,
            n_inner: n,
            fanout: 7,
            seed: 31,
            skew,
            ..Default::default()
        };
        let (catalog, disk) = build_workload(spec);
        for (label, method) in
            [("merge", JoinMethod::Merge), ("partitioned", JoinMethod::Partitioned)]
        {
            disk.reset_io();
            let engine = Engine::over(catalog.clone().into(), &disk).with_config(ExecConfig {
                buffer_pages: 32,
                sort_pages: 32,
                join_method: method,
                threads: args.threads,
                ..Default::default()
            });
            let out = engine.run_sql(bench::TYPE_J_SQL, Strategy::Unnest).unwrap();
            println!(
                "{:<10} {:<13} {:>8} {:>8} {:>10.1} {:>12} {:>8}",
                wname,
                label,
                out.measurement.io.reads,
                out.measurement.io.writes,
                out.measurement.cpu.as_secs_f64() * 1e3,
                out.metrics.totals().pairs_examined,
                out.answer.len()
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------------------
// Ablation: the Section 2.3 ladder — naive NL, intermediate relations, unnest
// ---------------------------------------------------------------------------

fn ablation_materialized(args: &Args, model: &CostModel) {
    use fuzzy_engine::{Engine, Strategy};
    println!("## Ablation — the Section 2.3 evaluation ladder for a type N query");
    println!("   with a selective p2 (naive nested loop → intermediate relation →");
    println!("   fully unnested merge-join)\n");
    let n = 16000 / args.scale.max(1);
    let spec = WorkloadSpec { n_outer: n, n_inner: n, fanout: 7, seed: 41, ..Default::default() };
    let (catalog, disk) = build_workload(spec);
    // p2 keeps ~10% of S: V uniform in [0, 1000).
    let sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V <= 100)";
    println!(
        "{:<18} {:>9} {:>9} {:>12} {:>12}",
        "strategy", "reads", "writes", "pairs", "response (s)"
    );
    for (label, strategy) in [
        ("nested-loop", Strategy::NestedLoop),
        ("materialized-nl", Strategy::MaterializedNestedLoop),
        ("unnest (merge)", Strategy::Unnest),
    ] {
        disk.reset_io();
        let engine = Engine::over(catalog.clone().into(), &disk).with_config(scaled_config(args));
        let out = engine.run_sql(sql, strategy).unwrap();
        println!(
            "{:<18} {:>9} {:>9} {:>12} {:>12.2}",
            label,
            out.measurement.io.reads,
            out.measurement.io.writes,
            out.metrics.totals().pairs_examined,
            out.response_time(model).as_secs_f64()
        );
    }
    println!();
}
