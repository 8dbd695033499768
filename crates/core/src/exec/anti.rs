//! The anti operator: grouped `MIN(D)` accumulation for negated nesting
//! (JX', NX', JALL', ALL' — Theorems 5.1 / 7.1). Each outer tuple's degree
//! is the fuzzy AND of the negated contributions of its matching inner
//! tuples; with a window predicate the inner scan is the same `Rng(r)`
//! merge window the flat join uses, which is exact because tuples outside
//! the window contribute the neutral 1. Under the nested-loop baselines the
//! same accumulation runs over a block nested loop of the two scans.

use crate::error::Result;
use crate::exec::lower::Access;
use crate::exec::merge_join::merge_window;
use crate::exec::{fold_preds, BoundCompare, Executor, Layout};
use crate::metrics::OperatorMetrics;
use crate::plan::{AntiKind, AntiPlan, PlanCompare};
use fuzzy_core::{Degree, Value};
use fuzzy_rel::{StoredTable, Tuple};

impl Executor {
    /// The anti operator: accumulates, per outer tuple, the negated
    /// contributions of its inner tuples (merge window, scanned inner set,
    /// or block nested loop by `access`) and returns the answer rows.
    pub(crate) fn anti(
        &mut self,
        outer_t: &StoredTable,
        inner_t: &StoredTable,
        plan: &AntiPlan,
        access: &Access,
        m: &mut OperatorMetrics,
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

        match access {
            Access::Merge { outer: ocol, inner: icol } => {
                // Inner tuples outside Rng(r) have window-predicate degree 0,
                // so they contribute the neutral 1: scanning only the window
                // is exact (this is what makes JX'/JALL' merge-joinable).
                // No threshold push-down here: low-degree pairs still lower
                // the MIN(D) group degree.
                merge_window(
                    outer_t,
                    ocol.attr,
                    inner_t,
                    icol.attr,
                    Degree::ZERO,
                    m,
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
            Access::Scan => {
                // Scan fallback (uncorrelated NOT IN / ALL): the inner set is
                // built once — the unnesting benefit — then the outer streams
                // against it.
                let inner_all: Vec<Tuple> = inner_t.scan().collect::<fuzzy_storage::Result<_>>()?;
                m.tuples_in += inner_all.len() as u64;
                for r in outer_t.scan() {
                    let r = r?;
                    m.tuples_in += 1;
                    let mut acc = r.degree;
                    for s in &inner_all {
                        m.pairs_examined += 1;
                        acc = acc.and(contribution(&r, s, s.degree, m));
                        if !acc.is_positive() {
                            break;
                        }
                    }
                    if acc.is_positive() {
                        m.tuples_out += 1;
                        rows.push((crate::exec::project(&r, &select_idx), acc));
                    }
                }
            }
            Access::NestedLoop => {
                // The accumulator of each outer tuple starts at μ_R ∧ p₁;
                // every inner tuple lowers it by its negated contribution.
                let outer_local = outer_layout.bind_all(&plan.outer.local_preds)?;
                let inner_local =
                    Layout::of_table(&plan.inner).bind_all(&plan.inner.local_preds)?;
                self.block_nested_loop(
                    outer_t,
                    inner_t,
                    m,
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
