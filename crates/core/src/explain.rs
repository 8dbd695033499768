//! `EXPLAIN` / `EXPLAIN ANALYZE` / `EXPLAIN VERIFY` rendering.
//!
//! Every form renders the [`Planned`] value the engine's planning step
//! returned for the statement — the plan-cache entry its runs drive — and
//! lowers nothing itself, so the text describes the tree that runs.
//!
//! `render` produces the *deterministic* part: the query's classified
//! type, how the engine evaluates it (a verified operator tree, or under
//! [`crate::Strategy::Unnest`] the naive fallback and why), the plan tree,
//! the operator tree, and closed-form cost estimates derived only from the
//! catalog snapshot's cardinalities and the execution configuration. Under
//! `EXPLAIN VERIFY` it renders instead the verified tree's report: the
//! rewrite rule, the push-down bound, every physical operator's
//! required/delivered properties, and the check count. Golden tests pin both
//! byte-for-byte.
//!
//! `render_actual` appends the *measured* part after a run: one line per
//! registered operator with its exact counters (deterministic across thread
//! counts) and its wall time (not deterministic — which is why golden tests
//! cover only the `EXPLAIN` half).

use crate::engine::QueryOutcome;
use crate::exec::lower::{Lowered, Node};
use crate::exec::ExecConfig;
use crate::metrics::OpKind;
use crate::plan::UnnestPlan;
use crate::plan_cache::Planned;
use crate::verify::{Outline, VerifiedPlan, Violation};
use fuzzy_core::Degree;
use fuzzy_rel::{Catalog, StoredTable};
use fuzzy_sql::ExplainMode;
use fuzzy_storage::estimated_initial_runs;

/// Ceiling of log2, with `log2_ceil(0) = log2_ceil(1) = 0`.
fn log2_ceil(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        u64::from(64 - (n - 1).leading_zeros())
    }
}

/// What `EXPLAIN VERIFY` prints for a statement with no operator tree.
const NOTHING_TO_VERIFY: &str =
    "verify: nothing to check — the naive reference evaluator is the semantics\n";

/// Renders the deterministic text of an `EXPLAIN` (`mode` Plan or Analyze)
/// or `EXPLAIN VERIFY` statement from its planned form: `None` is
/// [`crate::Strategy::Naive`], which has no tree to show. Both forms name the join
/// order when the optimizer reordered the written one, with the estimated
/// cardinalities it was ranked on when the plan was made. Every other
/// cardinality is read from `catalog`, the statement's snapshot.
pub(crate) fn render(
    q: &fuzzy_sql::Query,
    planned: Option<&Planned>,
    mode: ExplainMode,
    catalog: &Catalog,
    config: &ExecConfig,
) -> String {
    let class = fuzzy_sql::classify(q);
    let mut out = format!("query class: {class:?} (depth {})\n", q.depth());
    let verify = mode == ExplainMode::Verify;
    match planned {
        Some(Planned::Plan(plan)) => {
            out.push_str(&format!("strategy: {}\n", plan.label()));
            let lowered = plan.lowered();
            if let UnnestPlan::Flat(p) = &lowered.plan {
                let order: Vec<&str> = p.tables.iter().map(|t| t.binding.as_str()).collect();
                if order != lowered.written_order {
                    let sizes: Vec<String> = order
                        .iter()
                        .zip(&lowered.join_sizes)
                        .map(|(b, n)| format!("{b} {}", (n * 10.0).round() / 10.0))
                        .collect();
                    out.push_str(&format!(
                        "join order: {} (ranked by est. rows at plan time: {})\n",
                        order.join(" -> "),
                        sizes.join(", ")
                    ));
                }
            }
            if verify {
                out.push_str(&render_verify_report(
                    lowered.plan.rule().id(),
                    lowered.alpha,
                    &lowered.outline,
                    plan.checks(),
                    &[],
                ));
            } else {
                render_tree(plan, catalog, config, &mut out);
            }
        }
        Some(Planned::NaiveFallback(reason)) => {
            out.push_str("strategy: naive fallback\n");
            if verify {
                out.push_str(NOTHING_TO_VERIFY);
            } else {
                render_fallback(q, reason, catalog, &mut out);
            }
        }
        None => {
            out.push_str("strategy: naive\n");
            if verify {
                out.push_str(NOTHING_TO_VERIFY);
            }
        }
    }
    out
}

/// The `EXPLAIN` body of a verified tree: the plan tree, the operator tree,
/// and the cost estimates.
fn render_tree(plan: &VerifiedPlan, catalog: &Catalog, config: &ExecConfig, out: &mut String) {
    let lowered = plan.lowered();
    out.push_str(&lowered.plan.explain(lowered.access(), catalog));
    out.push_str(&render_operators(lowered));
    out.push_str(&render_estimates(lowered, config, catalog));
}

/// The `EXPLAIN` body of a naive-fallback statement: why it falls back, how
/// each nested block runs, and the outer relations.
fn render_fallback(q: &fuzzy_sql::Query, reason: &str, catalog: &Catalog, out: &mut String) {
    out.push_str(&format!("naive fallback: {reason}\n"));
    render_nested_blocks(q, catalog, 1, out);
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

/// Renders the lowered physical-operator tree: one line per operator in
/// execution order, with each join step annotated by where its output goes
/// (`-> answer` streamed into the result, `-> pipelined` kept in memory for
/// the next sort boundary, `-> temp table` materialized to the simulated
/// disk). A pipelined chain shows zero `-> temp table` lines.
fn render_operators(lowered: &Lowered) -> String {
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

/// The record bytes a sort's run-generation arena holds of `table`,
/// estimated from the catalog alone: a padded table stores each record at
/// its padding floor (exact unless a tuple's encoding outgrows the floor);
/// an unpadded table's records are bounded by the bytes of its pages.
fn arena_bytes(table: &StoredTable) -> u64 {
    match table.min_record_bytes() as u64 {
        0 => table.num_pages() * table.file().disk().page_size() as u64,
        floor => table.num_tuples() * floor,
    }
}

/// Closed-form cost estimates for a lowered tree: the external-sort work of
/// each sort whose input is a base-table scan, and the nested-loop pair
/// bound over the scanned tables that the unnesting avoids (Section 3's
/// `O(n log n)` vs `n_R × n_S` argument, per query). A sort of a joined
/// intermediate gets no line, and a tree without sorts (the baselines, a
/// partitioned or nested-loop join) shows only the pair bound. Every
/// cardinality is read from `catalog`, the statement's snapshot. The run
/// count follows run generation's arena rule (a run is cut when its record
/// bytes fill `sort_pages` pages), so for a padded table without local
/// predicates it is the count the sort reports.
fn render_estimates(lowered: &Lowered, config: &ExecConfig, catalog: &Catalog) -> String {
    let mut out = String::new();
    let scanned = |i: usize| match &lowered.nodes[i] {
        Node::Scan { table, .. } => Some(table),
        _ => None,
    };
    for (node, op) in lowered.nodes.iter().zip(&lowered.outline.ops) {
        let Node::Sort { .. } = node else { continue };
        let Some(t) = op.inputs.first().and_then(|&i| scanned(i)) else { continue };
        let (n, runs) = t.stored(catalog).map_or((0, 0), |s| {
            let page_size = s.file().disk().page_size();
            let runs = estimated_initial_runs(
                s.num_tuples(),
                arena_bytes(s),
                config.sort_pages,
                page_size,
            );
            (s.num_tuples(), runs)
        });
        out.push_str(&format!(
            "est: sort {}: ~{} comparisons, {runs} initial runs\n",
            t.binding,
            n * log2_ceil(n)
        ));
    }
    let bound = (0..lowered.nodes.len()).filter_map(scanned).fold(1u64, |acc, t| {
        acc.saturating_mul(t.stored(catalog).map_or(0, StoredTable::num_tuples))
    });
    out.push_str(&format!("est: nested-loop pair bound: {bound}\n"));
    out
}

/// Renders one verification report: rule, α bound, the operator outline with
/// required/delivered properties, and the verdict with any violations. A
/// verified tree renders with no violations; the FAILED verdict renders an
/// outline's own [`Outline::check`] findings.
pub fn render_verify_report(
    rule_id: &str,
    alpha: Degree,
    outline: &Outline,
    checks: usize,
    violations: &[Violation],
) -> String {
    let mut out = format!("rewrite rule: {rule_id}\n");
    out.push_str(&format!("push-down bound: α = {:.2}\n", alpha.value()));
    out.push_str("plan properties:\n");
    for (i, op) in outline.ops.iter().enumerate() {
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
    if violations.is_empty() {
        out.push_str(&format!(
            "verification: OK ({} operators, {checks} checks)\n",
            outline.ops.len()
        ));
    } else {
        out.push_str(&format!(
            "verification: FAILED ({} violation(s), {checks} checks)\n",
            violations.len()
        ));
        for v in violations {
            out.push_str(&format!("  {v}\n"));
        }
    }
    out
}

/// Renders the measured half of `EXPLAIN ANALYZE` from a finished run: one
/// line per operator (exact counters plus wall time) and the answer
/// cardinality.
pub(crate) fn render_actual(outcome: &QueryOutcome) -> String {
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
        if n.kind == OpKind::Sort {
            out.push_str(&format!(
                " gen={:.3}ms merge={:.3}ms",
                n.sort_phases.generation.as_secs_f64() * 1e3,
                n.sort_phases.merge.as_secs_f64() * 1e3
            ));
        }
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
/// under [`crate::Strategy::Naive`], which plans nothing.
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
