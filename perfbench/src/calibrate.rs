//! Speed calibration: the times a run reports are scaled to a reference
//! speed of the machine.
//!
//! On a host shared with other virtual machines the processor's speed for
//! this process drifts by a fifth or more within seconds and between minutes
//! (other tenants' load on the shared caches and sibling hardware threads),
//! and the drift moves every statement's time alike. The benchmark therefore
//! interleaves a fixed piece of reference work ([`reference_work`]) with the
//! statements, about one part in ten of the run, and divides each statement's
//! wall time by the median time of the [`NEAREST`] reference calls nearest to
//! it in time, then multiplies by [`REFERENCE_MS`]. The result reads as
//! milliseconds on a machine where the reference work takes
//! [`REFERENCE_MS`]. The reference work calls nothing of fuzzy-db, so a
//! change to the database moves the scaled times exactly as it moves the wall
//! times; only the machine's drift cancels.

use std::hint::black_box;
use std::time::Instant;

/// The reference speed: scaled times read as milliseconds on a machine where
/// one warm [`reference_work`] call takes this long. A call took 0.09 to
/// 0.14 ms on the 2-vCPU Xeon (2.0 GHz) virtual machine the bounds in
/// `BENCHMARK.json` were set on.
pub const REFERENCE_MS: f64 = 0.1;

/// Share of the measured statement time spent on reference work.
const SHARE: f64 = 0.1;

/// Reference calls run back to back; the first of each burst is not
/// recorded, so every sample is taken with the reference work's data in the
/// caches whatever the statement before it touched.
const BURST: usize = 8;

/// Reference samples whose median scales one statement.
const NEAREST: usize = 31;

/// Keys sorted and hashed per call.
const KEYS: usize = 512;

/// One unit of reference work, the same on every call: generate byte-string
/// keys, sort them, index them in a hash map and probe it, and evaluate
/// min/max expressions over floats, the kinds of work a statement does.
pub fn reference_work() -> u64 {
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut keys: Vec<Vec<u8>> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes().repeat(3)
        })
        .collect();
    keys.sort_unstable();
    let index: std::collections::HashMap<&[u8], usize> =
        keys.iter().enumerate().map(|(i, k)| (k.as_slice(), i)).collect();
    let mut acc = keys.iter().step_by(3).map(|k| index[k.as_slice()] as u64).sum::<u64>();
    let mut degree = 0.0f64;
    for i in 0..KEYS * 4 {
        let v = (i as f64 * 0.37).fract();
        degree = degree.max(v.min(1.0 - v));
    }
    acc += (degree * 1e6) as u64;
    black_box(acc)
}

/// Times one [`reference_work`] call, in seconds.
fn time_reference() -> f64 {
    let t0 = Instant::now();
    black_box(reference_work());
    t0.elapsed().as_secs_f64()
}

/// The median of `values`, which it sorts.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The factor that scales a time measured just after this call to the
/// reference speed: the median of `samples` fresh reference timings.
pub fn scale_now(samples: usize) -> f64 {
    black_box(reference_work());
    let mut times: Vec<f64> = (0..samples.max(1)).map(|_| time_reference()).collect();
    REFERENCE_MS * 1e-3 / median(&mut times)
}

/// Reference timings interleaved with a run's statements.
pub struct Calibration {
    origin: Instant,
    /// (seconds since `origin`, seconds taken) per reference call.
    samples: Vec<(f64, f64)>,
    spent: f64,
}

impl Calibration {
    pub fn new(origin: Instant) -> Calibration {
        Calibration { origin, samples: Vec::new(), spent: 0.0 }
    }

    /// Runs reference work until it amounts to [`SHARE`] of `measured`, the
    /// statement time of the run so far.
    pub fn keep_up(&mut self, measured: f64) {
        while self.spent < SHARE * measured {
            for call in 0..BURST {
                let at = self.origin.elapsed().as_secs_f64();
                let took = time_reference();
                if call > 0 {
                    self.samples.push((at, took));
                }
                self.spent += took;
            }
        }
    }

    /// The factor that scales times of the whole run to the reference
    /// speed: from the median of all its reference samples.
    pub fn run_factor(&self) -> f64 {
        if self.samples.is_empty() {
            return scale_now(NEAREST);
        }
        let mut all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        REFERENCE_MS * 1e-3 / median(&mut all)
    }

    /// Scales statement times to the reference speed. `times` holds
    /// (seconds since `origin` at the statement's start, wall seconds).
    pub fn scale(&self, times: &[(f64, f64)]) -> Vec<f64> {
        if self.samples.is_empty() {
            let factor = scale_now(NEAREST);
            return times.iter().map(|&(_, wall)| wall * factor).collect();
        }
        let n = self.samples.len();
        let k = NEAREST.min(n);
        let mut nearest = Vec::with_capacity(k);
        times
            .iter()
            .map(|&(at, wall)| {
                // The samples are in time order: take the `k` around `at`.
                let i = self.samples.partition_point(|s| s.0 < at);
                let first = i.saturating_sub(k / 2).min(n - k);
                nearest.clear();
                nearest.extend(self.samples[first..first + k].iter().map(|s| s.1));
                wall * REFERENCE_MS * 1e-3 / median(&mut nearest)
            })
            .collect()
    }
}
