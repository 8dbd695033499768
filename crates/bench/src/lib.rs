//! Shared harness code for the experiments and micro-benchmarks.
//!
//! One experiment leg: generate the Section 9 workload, run the canonical
//! type J query under a strategy, and report I/O, CPU, and the modeled
//! response time. The response time combines measured CPU with I/O counts
//! charged at a configurable per-page latency (DESIGN.md documents the
//! substitution of the paper's 1995 hardware with this model).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fuzzy_engine::exec::ExecConfig;
use fuzzy_engine::{Engine, OpKind, Strategy};
use fuzzy_rel::Catalog;
use fuzzy_storage::{CostModel, IoSnapshot, SimDisk};
use fuzzy_workload::{generate, WorkloadSpec};
use std::time::Duration;

/// The canonical type J query of the experiments: the IN attribute is the
/// fan-out-controlled fuzzy attribute `X`; the correlation predicate on the
/// key makes the query type J without affecting the join population.
pub const TYPE_J_SQL: &str =
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)";

/// One measured execution.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    /// Physical I/O of the run.
    pub io: IoSnapshot,
    /// Measured CPU time.
    pub cpu: Duration,
    /// CPU time attributed to external sorting (merge-join only).
    pub sort_cpu: Duration,
    /// I/O attributed to external sorting.
    pub sort_io: u64,
    /// Tuple pairs examined.
    pub pairs: u64,
    /// Answer cardinality.
    pub answer_rows: u64,
    /// Largest merge window observed (tuples).
    pub max_window: u64,
}

impl Leg {
    /// Modeled response time under `model`.
    pub fn response(&self, model: &CostModel) -> Duration {
        model.response_time(&self.io, self.cpu)
    }

    /// Fraction of the response time that is CPU (Table 3, row 1).
    pub fn cpu_share(&self, model: &CostModel) -> f64 {
        let r = self.response(model).as_secs_f64();
        if r == 0.0 {
            0.0
        } else {
            self.cpu.as_secs_f64() / r
        }
    }

    /// Fraction of the response time spent sorting, CPU + I/O
    /// (Table 3, row 2).
    pub fn sort_share(&self, model: &CostModel) -> f64 {
        let r = self.response(model).as_secs_f64();
        if r == 0.0 {
            return 0.0;
        }
        let sort_io_time = model.page_io.as_secs_f64() * self.sort_io as f64;
        (self.sort_cpu.as_secs_f64() + sort_io_time) / r
    }
}

/// Builds the workload of a spec and returns the catalog + disk, with I/O
/// counters reset so only query execution is measured.
pub fn build_workload(spec: WorkloadSpec) -> (Catalog, SimDisk) {
    let disk = SimDisk::with_default_page_size();
    let w = generate(&disk, spec).expect("workload generation");
    let mut catalog = Catalog::new();
    catalog.register(w.outer.clone());
    catalog.register(w.inner.clone());
    disk.reset_io();
    (catalog, disk)
}

/// Runs the canonical type J query once under `strategy`.
pub fn run_leg(catalog: &Catalog, disk: &SimDisk, strategy: Strategy, config: ExecConfig) -> Leg {
    run_leg_sql(catalog, disk, strategy, config, TYPE_J_SQL)
}

/// Runs an arbitrary query once under `strategy`.
pub fn run_leg_sql(
    catalog: &Catalog,
    disk: &SimDisk,
    strategy: Strategy,
    config: ExecConfig,
    sql: &str,
) -> Leg {
    disk.reset_io();
    let engine = Engine::over(catalog.clone().into(), disk).with_config(config);
    let out = engine.run_sql(sql, strategy).expect("experiment query");
    let sorts = out.metrics.ops().iter().filter(|n| n.kind == OpKind::Sort);
    let totals = out.metrics.totals();
    Leg {
        io: out.measurement.io,
        cpu: out.measurement.cpu,
        sort_cpu: sorts.clone().map(|n| n.wall).sum(),
        sort_io: sorts.map(|n| n.metrics.page_reads + n.metrics.page_writes).sum(),
        pairs: totals.pairs_examined,
        answer_rows: out.answer.len() as u64,
        max_window: totals.max_window,
    }
}

/// Formats a duration in the paper's unit (seconds, one decimal).
pub fn secs(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

/// The paper's buffer configuration: 2 MB of 8 KB pages for joins and sort.
pub fn paper_config() -> ExecConfig {
    ExecConfig { buffer_pages: 256, sort_pages: 256, ..Default::default() }
}

/// The analytic response-time model of Sections 3–8, used to extend tables
/// beyond the sizes the nested-loop method can be run at (the paper prints
/// "—" there; we optionally print a projected value).
pub mod analytic {
    /// Projected nested-loop I/O count: `b_R + ceil(b_R/(M−1)) × b_S`.
    pub fn nested_loop_ios(b_r: u64, b_s: u64, m: u64) -> u64 {
        b_r + b_r.div_ceil(m.saturating_sub(1).max(1)) * b_s
    }

    /// Projected nested-loop CPU pair count: `n_R × n_S`.
    pub fn nested_loop_pairs(n_r: u64, n_s: u64) -> u64 {
        n_r * n_s
    }

    /// Projected merge-join comparison count `O(n log n)` with constant 1.
    pub fn merge_join_comparisons(n_r: u64, n_s: u64) -> f64 {
        let f = |n: u64| {
            if n == 0 {
                0.0
            } else {
                (n as f64) * (n as f64).log2()
            }
        };
        f(n_r) + f(n_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leg_measurement_smoke() {
        let spec = WorkloadSpec { n_outer: 400, n_inner: 400, fanout: 4, ..Default::default() };
        let (catalog, disk) = build_workload(spec);
        let mj = run_leg(&catalog, &disk, Strategy::Unnest, paper_config());
        let nl = run_leg(&catalog, &disk, Strategy::NestedLoop, paper_config());
        // Answers agree in cardinality.
        assert_eq!(mj.answer_rows, nl.answer_rows);
        // NL examines the full cross product.
        assert_eq!(nl.pairs, 400 * 400);
        // MJ examines far fewer pairs (the windows).
        assert!(mj.pairs < nl.pairs / 10, "mj {} vs nl {}", mj.pairs, nl.pairs);
        // MJ attributed some of its work to sorting.
        assert!(mj.sort_io > 0);
        assert!(mj.sort_cpu > Duration::ZERO);
    }

    #[test]
    fn analytic_model() {
        assert_eq!(analytic::nested_loop_ios(100, 50, 11), 100 + 10 * 50);
        assert_eq!(analytic::nested_loop_pairs(8, 9), 72);
        assert!(analytic::merge_join_comparisons(1024, 1024) > 2.0 * 1024.0 * 9.9);
        assert_eq!(analytic::merge_join_comparisons(0, 0), 0.0);
    }

    #[test]
    fn cpu_and_sort_shares_are_fractions() {
        let spec = WorkloadSpec { n_outer: 300, n_inner: 300, ..Default::default() };
        let (catalog, disk) = build_workload(spec);
        let model = fuzzy_storage::CostModel::default();
        let mj = run_leg(&catalog, &disk, Strategy::Unnest, paper_config());
        let c = mj.cpu_share(&model);
        let s = mj.sort_share(&model);
        assert!((0.0..=1.0).contains(&c), "cpu share {c}");
        assert!((0.0..=1.0).contains(&s), "sort share {s}");
    }
}
