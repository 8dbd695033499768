//! Offline stand-in for the `criterion` crate.
//!
//! The build container cannot reach the crates.io registry, so the workspace
//! vendors the subset of criterion 0.5 its benches use: `Criterion`,
//! `BenchmarkGroup`, `BenchmarkId`, `Bencher::iter`, `black_box`, and the
//! `criterion_group!`/`criterion_main!` macros. Instead of criterion's
//! statistical machinery it times a fixed number of samples per benchmark
//! (each a batch of calls long enough to dwarf the clock's overhead) and
//! prints the median time per call with the fastest and slowest sample —
//! enough to compare runs, spread included, and to keep `cargo bench`
//! working offline. Like criterion, the bench binary takes a name filter:
//! `cargo bench --bench micro -- external_sort` runs only the benchmarks
//! whose full names contain `external_sort`.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Label for one parameterized benchmark (subset of criterion's).
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{}/{}", function_name.into(), parameter))
    }

    /// Just the parameter.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId(parameter.to_string())
    }
}

/// Per-benchmark timing driver.
pub struct Bencher {
    samples: usize,
    /// Calls per sample.
    iters: u32,
    /// Time per call of each sample, sorted ascending.
    per_iter: Vec<Duration>,
}

/// A sample is at least this long, so `Instant` overhead stays negligible
/// even for nanosecond routines.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

impl Bencher {
    /// Times `samples` batches of calls of `routine` and records the time
    /// per call of each batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Untimed warm-up for one sample's length, which also sizes the
        // batches: a sample makes as many calls as the warm-up managed.
        let start = Instant::now();
        self.iters = 0;
        while self.iters == 0 || start.elapsed() < MIN_SAMPLE {
            black_box(routine());
            self.iters += 1;
        }
        self.per_iter = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..self.iters {
                    black_box(routine());
                }
                start.elapsed() / self.iters
            })
            .collect();
        self.per_iter.sort();
    }

    /// Median, fastest and slowest time per call (zero before `iter` ran).
    fn summary(&self) -> (Duration, Duration, Duration) {
        match (self.per_iter.first(), self.per_iter.last()) {
            (Some(&min), Some(&max)) => (self.per_iter[self.per_iter.len() / 2], min, max),
            _ => (Duration::ZERO, Duration::ZERO, Duration::ZERO),
        }
    }
}

/// The bench registry (subset of criterion's `Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    group: Option<String>,
    sample_size: usize,
    /// Runs only the benchmarks whose full names contain it.
    filter: Option<String>,
}

/// The name filter of a bench binary's arguments: the first that is not a
/// flag (`cargo bench` itself passes `--bench`).
fn filter_of(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

fn run_one(filter: &Option<String>, label: &str, samples: usize, f: impl FnOnce(&mut Bencher)) {
    if filter.as_ref().is_some_and(|wanted| !label.contains(wanted.as_str())) {
        return;
    }
    let mut b = Bencher { samples: samples.max(1), iters: 0, per_iter: Vec::new() };
    f(&mut b);
    let (median, min, max) = b.summary();
    println!(
        "bench {label:<40} {median:>12.3?} /iter median (min {min:.3?}, max {max:.3?}; {} samples x {} iters)",
        b.samples, b.iters
    );
}

impl Criterion {
    /// Takes the name filter from the process arguments, as criterion's
    /// `configure_from_args` does; [`criterion_group!`] calls it.
    pub fn configure_from_args(mut self) -> Criterion {
        self.filter = filter_of(std::env::args().skip(1));
        self
    }

    fn label(&self, name: &str) -> String {
        match &self.group {
            Some(g) => format!("{g}/{name}"),
            None => name.to_string(),
        }
    }

    fn effective_samples(&self) -> usize {
        if self.sample_size == 0 {
            10
        } else {
            self.sample_size
        }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { c: self, name: name.into(), sample_size: 0 }
    }

    /// Runs a single named benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        run_one(&self.filter, &self.label(name), self.effective_samples(), f);
        self
    }

    /// Runs a single parameterized benchmark.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(&self.filter, &self.label(&id.0), self.effective_samples(), |b| f(b, input));
        self
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample count per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    fn samples(&self) -> usize {
        if self.sample_size == 0 {
            self.c.effective_samples()
        } else {
            self.sample_size
        }
    }

    /// Runs a named benchmark inside the group.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        run_one(&self.c.filter, &format!("{}/{}", self.name, name), self.samples(), f);
        self
    }

    /// Runs a parameterized benchmark inside the group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.0);
        run_one(&self.c.filter, &label, self.samples(), |b| f(b, input));
        self
    }

    /// Closes the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// Bundles bench functions under one entry point.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(c: &mut Criterion) {
        let mut group = c.benchmark_group("squares");
        group.sample_size(3);
        for n in [2u64, 4] {
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| b.iter(|| n * n));
        }
        group.finish();
    }

    criterion_group!(benches, squares);

    #[test]
    fn summary_is_median_min_max_per_call() {
        let mut b = Bencher { samples: 5, iters: 0, per_iter: Vec::new() };
        assert_eq!(b.summary(), (Duration::ZERO, Duration::ZERO, Duration::ZERO));
        b.iter(|| std::thread::sleep(Duration::from_micros(50)));
        assert_eq!(b.per_iter.len(), 5);
        assert!(b.iters >= 1);
        let (median, min, max) = b.summary();
        assert!(min <= median && median <= max);
        assert!(min >= Duration::from_micros(50), "per-call, not per-batch: {min:?}");
    }

    #[test]
    fn the_name_filter_selects_benchmarks() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(filter_of(args(&["--bench"])), None);
        assert_eq!(filter_of(args(&["external_sort", "--bench"])), Some("external_sort".into()));
        assert_eq!(filter_of(args(&["--bench", "codec"])), Some("codec".into()));
        let mut c = Criterion { filter: Some("sort/".into()), ..Criterion::default() };
        let mut ran = Vec::new();
        let mut group = c.benchmark_group("external_sort");
        group.sample_size(1);
        group.bench_function("pages", |b| {
            ran.push("external_sort/pages");
            b.iter(|| 1)
        });
        group.finish();
        c.bench_function("codec", |b| {
            ran.push("codec");
            b.iter(|| 1)
        });
        c.bench_with_input(BenchmarkId::new("scan", 2), &2, |b, &x| {
            ran.push("scan/2");
            b.iter(|| x)
        });
        assert_eq!(ran, ["external_sort/pages"]);
    }

    #[test]
    fn group_and_macros_run() {
        benches();
        let mut c = Criterion::default();
        c.bench_function("plain", |b| b.iter(|| black_box(1 + 1)));
        c.bench_with_input(BenchmarkId::new("with_input", 7), &7, |b, &x| b.iter(|| x * 2));
    }
}
