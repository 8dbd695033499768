//! The anti operator: grouped `MIN(D)` accumulation for negated nesting
//! (JX', NX', JALL', ALL' — Theorems 5.1 / 7.1). Each outer tuple's degree
//! is the fuzzy AND of the negated contributions of its matching inner
//! tuples; with a window predicate the inner scan is the same `Rng(r)`
//! merge window the flat join uses, which is exact because tuples outside
//! the window contribute the neutral 1. Under the nested-loop baselines the
//! same accumulation runs over a block nested loop of the two scans.

use crate::error::{EngineError, Result};
use crate::exec::{fold_preds, BoundCompare, Executor, Layout};
use crate::metrics::{OpKind, OperatorMetrics};
use crate::plan::{AntiKind, AntiPlan, PlanCol, PlanCompare};
use crate::verify::{PhysOp, Prop};
use fuzzy_core::{Degree, Value};
use fuzzy_rel::{StoredTable, Tuple};

/// Declaration of the merge-window anti operator over ⪯-sorted inputs.
pub(crate) fn declared_properties_merge(
    plan: &AntiPlan,
    ocol: &PlanCol,
    icol: &PlanCol,
    sort_o: usize,
    sort_i: usize,
) -> PhysOp {
    let z = Degree::ZERO;
    PhysOp::declare(
        format!("anti-merge {} x {}", plan.outer.binding, plan.inner.binding),
        vec![sort_o, sort_i],
        vec![
            (0, Prop::Sorted { col: ocol.clone(), alpha: z }),
            (1, Prop::Sorted { col: icol.clone(), alpha: z }),
            (0, Prop::Binding(plan.outer.binding.clone())),
            (1, Prop::Binding(plan.inner.binding.clone())),
        ],
        vec![Prop::Binding(plan.outer.binding.clone()), Prop::MinDegree(z)],
    )
}

/// Declaration of an anti operator over two unsorted scans: the scan
/// fallback (`anti-scan`, uncorrelated NOT IN/ALL) or the baselines' block
/// nested loop (`nested-loop-anti`).
pub(crate) fn declared_properties_unsorted(
    name: &str,
    plan: &AntiPlan,
    scan_o: usize,
    scan_i: usize,
) -> PhysOp {
    let z = Degree::ZERO;
    PhysOp::declare(
        format!("{name} {} x {}", plan.outer.binding, plan.inner.binding),
        vec![scan_o, scan_i],
        vec![
            (0, Prop::Binding(plan.outer.binding.clone())),
            (1, Prop::Binding(plan.inner.binding.clone())),
        ],
        vec![Prop::Binding(plan.outer.binding.clone()), Prop::MinDegree(z)],
    )
}

/// How the anti operator consumes its inputs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum AntiMode {
    /// Merge window over ⪯-sorted inputs (correlated on a window predicate).
    Merge,
    /// The inner set built once, the outer streamed against it.
    Scan,
    /// Block nested loop (the baselines); evaluates the local predicates its
    /// plan's tables still carry, p₁ per outer tuple and p₂ per pair.
    NestedLoop,
}

impl AntiMode {
    /// The method tag of the plan label.
    pub(crate) fn name(self) -> &'static str {
        match self {
            AntiMode::Merge => "merge",
            AntiMode::Scan => "scan",
            AntiMode::NestedLoop => "nested-loop",
        }
    }
}

impl Executor {
    /// The anti operator: accumulates, per outer tuple, the negated
    /// contributions of its inner tuples (merge window, scanned inner set,
    /// or block nested loop by `mode`) and returns the answer rows.
    pub(crate) fn anti(
        &mut self,
        outer_t: &StoredTable,
        inner_t: &StoredTable,
        plan: &AntiPlan,
        mode: AntiMode,
        label: String,
    ) -> Result<Vec<(Vec<Value>, Degree)>> {
        let mut pair_layout = Layout::of_table(&plan.outer);
        pair_layout.push(&plan.inner);
        let pair = pair_layout.bind_all(&plan.pair_preds)?;
        let kind_extra: Option<BoundCompare> = match &plan.kind {
            AntiKind::Exclusion => None,
            AntiKind::All { op, lhs, rhs } => Some(pair_layout.bind(&PlanCompare {
                lhs: lhs.clone(),
                op: *op,
                rhs: rhs.clone(),
                tolerance: None,
            })?),
        };
        // The negated contribution of one inner tuple to the MIN(D) group of
        // one outer tuple: 1 − min(μ_S∧p₂, d(pair preds) [, 1 − d(Y op Z)]),
        // where `inner_d` is the inner tuple's μ_S∧p₂.
        let contribution = |r: &Tuple, s: &Tuple, mut inner_d: Degree, m: &mut OperatorMetrics| {
            for p in &pair {
                m.fuzzy_comparisons += 1;
                inner_d = inner_d.and(p.eval_pair(&r.values, &s.values));
                if !inner_d.is_positive() {
                    return Degree::ONE; // neutral
                }
            }
            if let Some(b) = &kind_extra {
                m.fuzzy_comparisons += 1;
                inner_d = inner_d.and(b.eval_pair(&r.values, &s.values).not());
            }
            inner_d.not()
        };

        let outer_layout = Layout::of_table(&plan.outer);
        let (_, select_idx) = outer_layout.projection(&plan.select)?;
        let mut rows: Vec<(Vec<Value>, Degree)> = Vec::new();

        match mode {
            AntiMode::Merge => {
                let Some((ocol, icol)) = plan.window.as_ref() else {
                    return Err(EngineError::Verify("anti-merge lowered without a window".into()));
                };
                // Inner tuples outside Rng(r) have window-predicate degree 0,
                // so they contribute the neutral 1: scanning only the window
                // is exact (this is what makes JX'/JALL' merge-joinable).
                // No threshold push-down here: low-degree pairs still lower
                // the MIN(D) group degree.
                self.merge_window(
                    outer_t,
                    ocol.attr,
                    inner_t,
                    icol.attr,
                    Degree::ZERO,
                    OpKind::Anti,
                    label,
                    |r, rng, m| {
                        let mut acc = r.degree;
                        for s in rng {
                            acc = acc.and(contribution(r, s, s.degree, m));
                            if !acc.is_positive() {
                                break;
                            }
                        }
                        if acc.is_positive() {
                            m.tuples_out += 1;
                            rows.push((crate::exec::project(r, &select_idx), acc));
                        }
                        Ok(())
                    },
                )?;
            }
            AntiMode::Scan => {
                // Scan fallback (uncorrelated NOT IN / ALL): the inner set is
                // built once — the unnesting benefit — then the outer streams
                // against it.
                let g = self.begin_op(OpKind::Anti, label);
                let pool = self.pool(self.config.buffer_pages);
                let inner_all: Vec<Tuple> =
                    inner_t.scan(&pool).collect::<fuzzy_storage::Result<_>>()?;
                let opool = self.pool(1);
                let mut m = OperatorMetrics::default();
                m.tuples_in += inner_all.len() as u64;
                for r in outer_t.scan(&opool) {
                    let r = r?;
                    m.tuples_in += 1;
                    let mut acc = r.degree;
                    for s in &inner_all {
                        m.pairs_examined += 1;
                        acc = acc.and(contribution(&r, s, s.degree, &mut m));
                        if !acc.is_positive() {
                            break;
                        }
                    }
                    if acc.is_positive() {
                        m.tuples_out += 1;
                        rows.push((crate::exec::project(&r, &select_idx), acc));
                    }
                }
                m.add_pool(&pool.stats());
                m.add_pool(&opool.stats());
                self.absorb_op(&g, &m);
                self.end_op(g);
            }
            AntiMode::NestedLoop => {
                // The accumulator of each outer tuple starts at μ_R ∧ p₁;
                // every inner tuple lowers it by its negated contribution.
                let outer_local = outer_layout.bind_all(&plan.outer.local_preds)?;
                let inner_local =
                    Layout::of_table(&plan.inner).bind_all(&plan.inner.local_preds)?;
                self.block_nested_loop(
                    outer_t,
                    inner_t,
                    OpKind::Anti,
                    label,
                    |r, m| fold_preds(r.degree, &outer_local, &r.values, m),
                    |acc, r, s, m| {
                        if acc.is_positive() {
                            let inner_d = fold_preds(s.degree, &inner_local, &s.values, m);
                            if inner_d.is_positive() {
                                *acc = acc.and(contribution(r, s, inner_d, m));
                            }
                        }
                        Ok(())
                    },
                    |r, acc, m| {
                        if acc.is_positive() {
                            m.tuples_out += 1;
                            rows.push((crate::exec::project(&r, &select_idx), acc));
                        }
                        Ok(())
                    },
                )?;
            }
        }
        Ok(rows)
    }
}
