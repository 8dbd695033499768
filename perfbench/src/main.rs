//! `perfbench`: the end-to-end and per-layer benchmark of fuzzy-db.
//!
//! ```sh
//! python3 perfbench/run.py --workload analytic --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds this package and runs it with the same arguments. One
//! closed-loop client sends the workload's statements through a `Session`,
//! each as soon as the previous one returns, until `--seconds` have passed.
//! Every statement's wall time, scaled to the machine's reference speed
//! (`calibrate.rs`), is one latency sample. Before the loop the database is
//! set up [`SETUP_RUNS`] times from the seed; the median of the scaled
//! set-up times is `setup_s`. After set-up every distinct read statement is checked against
//! a reference evaluation, and answers in the loop are checked again (see
//! `workload.rs`).
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` the metrics are the end-to-end ones (statement latency
//! median and 95th percentile, throughput, set-up time); with `--trace 1`
//! they are the per-layer ones of `trace.rs`, and `--spans FILE` writes the
//! recorded spans.

mod calibrate;
mod trace;
mod workload;

use calibrate::Calibration;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{write_is_correct, Kind, Stmt, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 21;

/// Reference timings taken before each set-up to scale it.
const SETUP_REFERENCE_SAMPLES: usize = 15;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut spans) = (None, None, None, false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                let parsed =
                    value.parse::<u64>().or_else(|_| value.parse::<i64>().map(|s| s as u64));
                seed = Some(parsed.map_err(|e| format!("--seed {value:?}: {e}"))?)
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans,
    })
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn run() -> Result<String, String> {
    let args = parse_args()?;

    let mut setup = Vec::with_capacity(SETUP_RUNS);
    let mut built = None;
    for _ in 0..SETUP_RUNS {
        drop(built.take());
        let scale = calibrate::scale_now(SETUP_REFERENCE_SAMPLES);
        let t0 = Instant::now();
        let w = Workload::build(args.kind, args.seed)?;
        setup.push(t0.elapsed().as_secs_f64() * scale);
        built = Some(w);
    }
    let mut w = built.expect("SETUP_RUNS > 0");
    setup.sort_by(f64::total_cmp);

    let mut correct = true;
    if let Err(e) = w.check_reference() {
        eprintln!("perfbench: {e}");
        correct = false;
    }

    let mut tracer = args.trace.then(Tracer::new);
    // (start in seconds since `started`, wall seconds) per statement that
    // returned.
    let mut timed = Vec::new();
    let mut busy = 0.0;
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut calibration = Calibration::new(started);
    while started.elapsed() < budget {
        attempted += 1;
        let stmt = w.next_stmt();
        let t0 = Instant::now();
        let (elapsed, outcome) = match &stmt {
            Stmt::Read { slot } => {
                let result = match &mut tracer {
                    Some(t) => t.read(&w.session, w.read_sql(*slot)),
                    None => w.run_read(*slot),
                };
                let elapsed = t0.elapsed();
                (elapsed, result.map(|out| w.read_is_correct(*slot, &out.answer)))
            }
            Stmt::Write { sql } => {
                let result = match &mut tracer {
                    Some(t) => t.write(&w.session, sql),
                    None => w.run_write(sql),
                };
                (t0.elapsed(), result.map(|r| write_is_correct(&r)))
            }
        };
        match outcome {
            Ok(ok) => {
                timed.push(((t0 - started).as_secs_f64(), elapsed.as_secs_f64()));
                if !ok {
                    wrong += 1;
                    correct = false;
                }
            }
            Err(e) => {
                failed += 1;
                if failed <= 3 {
                    eprintln!("perfbench: statement failed: {e}");
                }
            }
        }
        busy += elapsed.as_secs_f64();
        calibration.keep_up(busy);
    }
    if wrong > 0 {
        eprintln!("perfbench: {wrong} statement(s) returned a wrong result");
    }

    let mut wall: Vec<f64> = timed.iter().map(|t| t.1).collect();
    wall.sort_by(f64::total_cmp);
    let mut latencies = calibration.scale(&timed);
    latencies.sort_by(f64::total_cmp);
    let scaled_busy: f64 = latencies.iter().sum();
    eprintln!(
        "perfbench: {:?} seed {}: {attempted} statements, {failed} failed; wall p50 {:.4} ms, \
         p95 {:.4} ms; scaled p50 {:.4} ms, p95 {:.4} ms; set-up median {:.5} s (scaled)",
        args.kind,
        args.seed,
        quantile(&wall, 0.5) * 1e3,
        quantile(&wall, 0.95) * 1e3,
        quantile(&latencies, 0.5) * 1e3,
        quantile(&latencies, 0.95) * 1e3,
        quantile(&setup, 0.5)
    );
    let metrics = match &tracer {
        Some(t) => {
            if let Some(path) = &args.spans {
                t.write_spans(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
            t.metrics(calibration.run_factor())
        }
        None => vec![
            ("p50_ms", quantile(&latencies, 0.5) * 1e3, "ms"),
            ("p95_ms", quantile(&latencies, 0.95) * 1e3, "ms"),
            (
                "throughput_sps",
                if scaled_busy > 0.0 { latencies.len() as f64 / scaled_busy } else { 0.0 },
                "1/s",
            ),
            ("setup_s", quantile(&setup, 0.5), "s"),
        ],
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn main() {
    match run() {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
