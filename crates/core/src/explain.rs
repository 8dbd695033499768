//! `EXPLAIN` / `EXPLAIN ANALYZE` rendering.
//!
//! [`render_explain`] produces the *deterministic* part: the query's
//! classified type, how the engine would evaluate it under a strategy (an
//! unnested plan, or under [`crate::Strategy::Unnest`] the naive fallback),
//! the plan tree, the lowered operator tree, and closed-form cost estimates
//! derived only from catalog cardinalities and the execution configuration.
//! Golden tests pin this output byte-for-byte.
//!
//! [`render_actual`] appends the *measured* part after a run: one line per
//! registered operator with its exact counters (deterministic across thread
//! counts) and its wall time (not deterministic — which is why golden tests
//! cover only the `EXPLAIN` half).
//!
//! [`render_verify`] renders the `EXPLAIN VERIFY` statement: the static
//! verifier's report ([`crate::verify`]) — the rewrite rule, the push-down
//! bound, every physical operator's required/delivered properties, and any
//! violations. Fully deterministic, so it too is pinned by golden tests.

use crate::engine::{QueryOutcome, Strategy};
use crate::error::{EngineError, Result};
use crate::exec::ExecConfig;
use crate::plan::UnnestPlan;
use crate::stats_histogram::StatsRegistry;
use crate::unnest::build_plan;
use fuzzy_rel::Catalog;

/// Ceiling of log2, with `log2_ceil(0) = log2_ceil(1) = 0`.
fn log2_ceil(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        u64::from(64 - (n - 1).leading_zeros())
    }
}

/// Renders the deterministic `EXPLAIN` text for a query under a strategy:
/// class, strategy, plan tree (reordered exactly as the executor would
/// reorder it), operator tree, and cost estimates. A shape outside the
/// unnesting catalogue renders the naive fallback under
/// [`Strategy::Unnest`] and is `Unsupported` under the baselines.
pub fn render_explain(
    q: &fuzzy_sql::Query,
    strategy: Strategy,
    catalog: &Catalog,
    config: &ExecConfig,
    statistics: Option<&StatsRegistry>,
) -> Result<String> {
    let class = fuzzy_sql::classify(q);
    let mut out = format!("query class: {class:?} (depth {})\n", q.depth());
    match plan_or_fallback(q, strategy, catalog)? {
        Ok(plan) => {
            // Lower through the same pass the executor runs, so the rendered
            // tree, join order, and operator list are the ones that run.
            let lowered = crate::exec::lower::lower(&plan, strategy, config, statistics);
            out.push_str(&format!("strategy: {}:{}\n", strategy.name(), lowered.label()));
            if let (UnnestPlan::Flat(orig), UnnestPlan::Flat(eff)) = (&plan, &lowered.plan) {
                let orig_order: Vec<&str> =
                    orig.tables.iter().map(|t| t.binding.as_str()).collect();
                let eff_order: Vec<&str> = eff.tables.iter().map(|t| t.binding.as_str()).collect();
                if orig_order != eff_order {
                    out.push_str(&format!("join order: {}\n", eff_order.join(" -> ")));
                }
            }
            out.push_str(&lowered.plan.explain(strategy));
            out.push_str(&render_operators(&lowered));
            out.push_str(&render_estimates(&lowered.plan, strategy, config));
        }
        Err(msg) => {
            out.push_str("strategy: naive fallback\n");
            out.push_str(&format!("naive fallback: {msg}\n"));
            render_nested_blocks(q, catalog, 1, &mut out);
            for t in &q.from {
                if let Some(stored) = catalog.table(&t.table) {
                    out.push_str(&format!(
                        "  from {} ({} tuples, {} pages)\n",
                        t.binding_name(),
                        stored.num_tuples(),
                        stored.num_pages()
                    ));
                }
            }
        }
    }
    Ok(out)
}

/// One line per nested block of a naive-fallback statement, in evaluation
/// order and indented by nesting depth: whether the serving evaluator runs
/// it once or per outer tuple ([`crate::naive::is_closed`], the analysis the
/// evaluator uses).
fn render_nested_blocks(q: &fuzzy_sql::Query, catalog: &Catalog, depth: usize, out: &mut String) {
    for sub in q.direct_subqueries() {
        let from = sub
            .from
            .iter()
            .map(|t| match &t.alias {
                Some(alias) => format!("{} {alias}", t.table),
                None => t.table.clone(),
            })
            .collect::<Vec<_>>()
            .join(", ");
        let runs = if crate::naive::is_closed(sub, catalog) {
            "closed: evaluated once"
        } else {
            "correlated: re-run per outer tuple"
        };
        out.push_str(&format!("{:indent$}block FROM {from}: {runs}\n", "", indent = 2 * depth));
        render_nested_blocks(sub, catalog, depth + 1, out);
    }
}

/// The plan `strategy` evaluates `q` with, or — under
/// [`Strategy::Unnest`] only — why `q` falls back to the naive evaluator.
/// The baselines have no fallback: a shape outside the unnesting catalogue
/// is their `Unsupported` error, as it is when they run.
fn plan_or_fallback(
    q: &fuzzy_sql::Query,
    strategy: Strategy,
    catalog: &Catalog,
) -> Result<std::result::Result<UnnestPlan, String>> {
    match build_plan(q, catalog) {
        Ok(plan) => Ok(Ok(plan)),
        Err(EngineError::Unsupported(msg)) if strategy == Strategy::Unnest => Ok(Err(msg)),
        Err(e) => Err(e),
    }
}

/// Renders the lowered physical-operator tree: one line per operator in
/// execution order, with each join step annotated by where its output goes
/// (`-> answer` streamed into the result, `-> pipelined` kept in memory for
/// the next sort boundary, `-> temp table` materialized to the simulated
/// disk). A pipelined chain shows zero `-> temp table` lines.
fn render_operators(lowered: &crate::exec::lower::Lowered) -> String {
    let mut out = String::from("operators:\n");
    for (i, op) in lowered.outline.ops.iter().enumerate() {
        out.push_str(&format!("  #{i} {}", op.name));
        if let Some(note) = lowered.sink_note(i) {
            out.push_str(&format!(" {note}"));
        }
        out.push('\n');
    }
    out
}

/// Closed-form cost estimates for a plan: the external-sort work on each
/// base relation the plan sorts and the nested-loop pair bound the unnesting
/// avoids (Section 3's `O(n log n)` vs `n_R × n_S` argument, per query).
/// The baselines sort nothing, so they show only the pair bound.
fn render_estimates(plan: &UnnestPlan, strategy: Strategy, config: &ExecConfig) -> String {
    let sort_pages = config.sort_pages.max(1) as u64;
    let mut out = String::new();
    let sorts = strategy == Strategy::Unnest;
    let sort_line = |binding: &str, n: u64, b: u64, out: &mut String| {
        if !sorts {
            return;
        }
        out.push_str(&format!(
            "est: sort {binding}: ~{} comparisons, {} initial runs\n",
            n * log2_ceil(n),
            b.div_ceil(sort_pages).max(u64::from(n > 0))
        ));
    };
    match plan {
        UnnestPlan::Flat(p) => {
            if p.tables.len() > 1 {
                for t in &p.tables {
                    sort_line(&t.binding, t.table.num_tuples(), t.table.num_pages(), &mut out);
                }
            }
            let bound =
                p.tables.iter().fold(1u64, |acc, t| acc.saturating_mul(t.table.num_tuples()));
            out.push_str(&format!("est: nested-loop pair bound: {bound}\n"));
        }
        UnnestPlan::Anti(p) => {
            if p.window.is_some() {
                for t in [&p.outer, &p.inner] {
                    sort_line(&t.binding, t.table.num_tuples(), t.table.num_pages(), &mut out);
                }
            }
            let bound = p.outer.table.num_tuples().saturating_mul(p.inner.table.num_tuples());
            out.push_str(&format!("est: nested-loop pair bound: {bound}\n"));
        }
        UnnestPlan::Agg(p) => {
            if let Some((_, op2, _)) = &p.corr {
                sort_line(
                    &p.outer.binding,
                    p.outer.table.num_tuples(),
                    p.outer.table.num_pages(),
                    &mut out,
                );
                if *op2 == fuzzy_core::CmpOp::Eq {
                    sort_line(
                        &p.inner.binding,
                        p.inner.table.num_tuples(),
                        p.inner.table.num_pages(),
                        &mut out,
                    );
                }
            }
            let bound = p.outer.table.num_tuples().saturating_mul(p.inner.table.num_tuples());
            out.push_str(&format!("est: nested-loop pair bound: {bound}\n"));
        }
    }
    out
}

/// Renders the `EXPLAIN VERIFY` text for a query under a strategy: class,
/// strategy, and the static verification report of the operator tree the
/// executor would run. The naive fallback has nothing to verify — the naive
/// evaluator is the semantics the equivalence theorems are checked against.
pub fn render_verify(
    q: &fuzzy_sql::Query,
    strategy: Strategy,
    catalog: &Catalog,
    config: &ExecConfig,
    statistics: Option<&StatsRegistry>,
) -> Result<String> {
    let class = fuzzy_sql::classify(q);
    let mut out = format!("query class: {class:?} (depth {})\n", q.depth());
    match plan_or_fallback(q, strategy, catalog)? {
        Ok(plan) => {
            let report = crate::verify::verify_plan(&plan, strategy, config, statistics);
            out.push_str(&format!("strategy: {}:{}\n", strategy.name(), report.plan_label));
            out.push_str(&render_verify_report(&report));
        }
        Err(_) => {
            out.push_str("strategy: naive fallback\n");
            out.push_str(
                "verify: nothing to check — the naive reference evaluator is the semantics\n",
            );
        }
    }
    Ok(out)
}

/// Renders one verification report: rule, α bound, the operator outline with
/// required/delivered properties, and the verdict with any violations.
pub fn render_verify_report(report: &crate::verify::VerifyReport) -> String {
    let mut out = format!("rewrite rule: {}\n", report.rule_id);
    out.push_str(&format!("push-down bound: α = {:.2}\n", report.alpha.value()));
    out.push_str("plan properties:\n");
    for (i, op) in report.outline.ops.iter().enumerate() {
        out.push_str(&format!("  #{i} {}", op.name));
        if !op.is_declared() {
            out.push_str("  !! undeclared\n");
            continue;
        }
        if !op.requires.is_empty() {
            let reqs: Vec<String> =
                op.requires.iter().map(|(slot, p)| format!("in{slot}:{p}")).collect();
            out.push_str(&format!("  requires {}", reqs.join(" ")));
        }
        if !op.delivers.is_empty() {
            let dels: Vec<String> = op.delivers.iter().map(|p| p.to_string()).collect();
            out.push_str(&format!("  delivers {}", dels.join(" ")));
        }
        out.push('\n');
    }
    if report.ok() {
        out.push_str(&format!(
            "verification: OK ({} operators, {} checks)\n",
            report.outline.ops.len(),
            report.checks
        ));
    } else {
        out.push_str(&format!(
            "verification: FAILED ({} violation(s), {} checks)\n",
            report.violations.len(),
            report.checks
        ));
        for v in &report.violations {
            out.push_str(&format!("  {v}\n"));
        }
    }
    out
}

/// Renders the measured half of `EXPLAIN ANALYZE` from a finished run: one
/// line per operator (exact counters plus wall time) and the answer
/// cardinality.
pub fn render_actual(outcome: &QueryOutcome) -> String {
    let mut out = String::from("actual:\n");
    for n in outcome.metrics.ops() {
        let m = &n.metrics;
        out.push_str(&format!(
            "  [{}] {}: in={} out={} t={:.3}ms",
            n.kind.name(),
            n.label,
            m.tuples_in,
            m.tuples_out,
            n.wall.as_secs_f64() * 1e3
        ));
        if m.pairs_examined > 0 {
            out.push_str(&format!(" pairs={}", m.pairs_examined));
        }
        if m.fuzzy_comparisons > 0 {
            out.push_str(&format!(" cmp={}", m.fuzzy_comparisons));
        }
        if m.pairs_pruned > 0 {
            out.push_str(&format!(" pruned={}", m.pairs_pruned));
        }
        if m.max_window > 0 {
            out.push_str(&format!(" win={}", m.max_window));
        }
        if m.sort_runs > 0 {
            out.push_str(&format!(" runs={}", m.sort_runs));
        }
        if m.sort_comparisons > 0 {
            out.push_str(&format!(" scmp={}", m.sort_comparisons));
        }
        if m.buffer_requests > 0 {
            out.push_str(&format!(
                " buf={}/{}/{}",
                m.buffer_requests, m.buffer_hits, m.buffer_misses
            ));
        }
        if m.page_reads + m.page_writes > 0 {
            out.push_str(&format!(" io={}r+{}w", m.page_reads, m.page_writes));
        }
        out.push('\n');
    }
    out.push_str(&format!("answer: {} rows\n", outcome.answer.len()));
    out.push_str(&render_serving(&outcome.serving));
    out
}

/// Renders the serving section of `EXPLAIN ANALYZE`: the plan-cache verdict
/// for this statement, the registry totals, and the concurrency snapshot.
/// Every engine plans through a plan cache, so the section is empty only
/// under [`Strategy::Naive`], which plans nothing.
fn render_serving(s: &crate::metrics::ServingInfo) -> String {
    let hit = match s.cache_hit {
        Some(true) => "hit",
        Some(false) => "miss",
        None => return String::new(),
    };
    let mut out = String::from("serving:\n");
    out.push_str(&format!(
        "  plan cache: {hit} (verifications this statement: {})\n",
        s.plan_verifications
    ));
    out.push_str(&format!(
        "  cache totals: {} hits, {} misses, {} invalidations, {} evictions, {} entries\n",
        s.cache.hits, s.cache.misses, s.cache.invalidations, s.cache.evictions, s.cache.entries
    ));
    out.push_str(&format!(
        "  sessions in flight: {}, catalog lock wait: {:.3}ms\n",
        s.sessions_in_flight,
        s.lock_wait.as_secs_f64() * 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_small_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }
}
