//! The anti operator: grouped `MIN(D)` accumulation for negated nesting
//! (JX', NX', JALL', ALL' — Theorems 5.1 / 7.1). Each outer tuple's degree
//! is the fuzzy AND of the negated contributions of its matching inner
//! tuples. It is one [`OuterFold`]: the accumulator starts at `μ_R ∧ p₁`,
//! each inner tuple lowers it, and the tuple is answered while it stays
//! positive. With a window predicate the candidates are the same `Rng(r)`
//! merge window the flat join uses, which is exact because tuples outside
//! the window contribute the neutral 1; no threshold is pushed down, since
//! low-degree pairs still lower the group's degree.

use crate::error::Result;
use crate::exec::lower::Access;
use crate::exec::outer_fold::OuterFold;
use crate::exec::{fold_preds, BoundCompare, Executor, Layout};
use crate::metrics::OperatorMetrics;
use crate::plan::{AntiKind, AntiPlan};
use fuzzy_core::{Degree, Value};
use fuzzy_rel::{StoredTable, Tuple};

/// The anti operator's per-pair step, bound to the plan's layouts.
struct AntiFold {
    /// p₁ and p₂, which only plain nested loop leaves to the operator.
    outer_local: Vec<BoundCompare>,
    inner_local: Vec<BoundCompare>,
    /// The correlation predicates, over the outer ++ inner layout.
    pair: Vec<BoundCompare>,
    /// `Y op Z` of the ALL form.
    all: Option<BoundCompare>,
    select_idx: Vec<usize>,
    rows: Vec<(Vec<Value>, Degree)>,
}

impl OuterFold for AntiFold {
    type Acc = Degree;

    #[inline]
    fn open(&mut self, r: &Tuple, m: &mut OperatorMetrics) -> (Degree, bool) {
        let acc = fold_preds(r.degree, &self.outer_local, &r.values, m);
        (acc, acc.is_positive())
    }

    /// Lowers `acc` by the negated contribution of `s`,
    /// 1 − min(μ_S ∧ p₂, d(pair preds) [, 1 − d(Y op Z)]); an inner tuple
    /// whose degree reaches 0 first contributes the neutral 1.
    #[inline]
    fn add(
        &mut self,
        acc: &mut Degree,
        r: &Tuple,
        s: &Tuple,
        m: &mut OperatorMetrics,
    ) -> Result<bool> {
        let mut d = fold_preds(s.degree, &self.inner_local, &s.values, m);
        for p in &self.pair {
            if !d.is_positive() {
                break;
            }
            m.fuzzy_comparisons += 1;
            d = d.and(p.eval_pair(&r.values, &s.values));
        }
        if d.is_positive() {
            if let Some(b) = &self.all {
                m.fuzzy_comparisons += 1;
                d = d.and(b.eval_pair(&r.values, &s.values).not());
            }
            *acc = acc.and(d.not());
        }
        Ok(acc.is_positive())
    }

    #[inline]
    fn close(&mut self, r: &Tuple, acc: Degree, m: &mut OperatorMetrics) -> Result<()> {
        if acc.is_positive() {
            m.tuples_out += 1;
            self.rows.push((crate::exec::project(r, &self.select_idx), acc));
        }
        Ok(())
    }
}

impl Executor {
    /// The anti operator: folds, per outer tuple, the negated contributions
    /// of the inner tuples `access` presents, and returns the answer rows.
    pub(crate) fn anti(
        &mut self,
        outer_t: &StoredTable,
        inner_t: &StoredTable,
        plan: &AntiPlan,
        access: &Access,
        m: &mut OperatorMetrics,
    ) -> Result<Vec<(Vec<Value>, Degree)>> {
        let outer_layout = Layout::of_table(&plan.outer);
        let mut pair_layout = outer_layout.clone();
        pair_layout.push(&plan.inner);
        let pair = pair_layout.bind_all(&plan.pair_preds)?;
        let all = match &plan.kind {
            AntiKind::Exclusion => None,
            AntiKind::All { op, lhs, rhs } => {
                let (lhs, rhs) = (pair_layout.bind_operand(lhs)?, pair_layout.bind_operand(rhs)?);
                Some(BoundCompare { lhs, op: *op, rhs, tolerance: None })
            }
        };
        let mut fold = AntiFold {
            select_idx: outer_layout.projection(&plan.select)?.1,
            outer_local: outer_layout.bind_all(&plan.outer.local_preds)?,
            inner_local: Layout::of_table(&plan.inner).bind_all(&plan.inner.local_preds)?,
            pair,
            all,
            rows: Vec::new(),
        };
        self.fold_outer(access, outer_t, inner_t, m, &mut fold)?;
        Ok(fold.rows)
    }
}
