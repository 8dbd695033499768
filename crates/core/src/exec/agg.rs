//! The aggregate operator: pipelined T1/T2/COUNT′ evaluation (Theorem 6.1
//! and the type-A constant case), plus [`Accumulator`], what each group is
//! folded into before the aggregate is applied. The operator is one
//! [`OuterFold`]: each inner tuple the access mode presents adds its `S.Z`
//! to `T(r)` at `μ_S ∧ p₂ ∧ d(S.V op₂ R.U)`, and the outer tuple is then
//! answered at `μ_R ∧ p₁ ∧ D(A(r)) ∧ d(R.Y op₁ A)`. COUNT's outer-join
//! IF-THEN-ELSE for empty groups is the same step, because an empty group
//! counts 0.

use crate::error::Result;
use crate::exec::lower::Access;
use crate::exec::outer_fold::OuterFold;
use crate::exec::{fold_preds, BoundCompare, BoundOperand, Executor, Layout};
use crate::metrics::OperatorMetrics;
use crate::naive::{apply_aggregate, non_numeric_operand};
use crate::plan::{AggDegree, AggPlan};
use fuzzy_core::arith::defuzz_cmp;
use fuzzy_core::hash::ValueHashBuilder;
use fuzzy_core::{CmpOp, Degree, Trapezoid, Value};
use fuzzy_rel::{StoredTable, Tuple};
use fuzzy_sql::AggFunc;
use std::cmp::Ordering;
use std::collections::HashMap;

/// One group of an aggregate, folded pair by pair: a running [`Extreme`]
/// for MIN and MAX under `D(A(r)) = 1`, and the fuzzy set `T(r)` (a
/// [`GroupSet`]) for every other aggregate or degree rule. NULL values and
/// non-positive degrees are not members. The aggregate fold
/// [`Accumulator::clear`]s a finished accumulator for its next group, so
/// allocations are reused across groups.
pub(crate) enum Accumulator {
    Extreme(Extreme),
    Set(GroupSet, AggFunc, AggDegree),
}

impl Accumulator {
    pub(crate) fn new(agg: AggFunc, agg_degree: AggDegree) -> Self {
        match (agg, agg_degree) {
            (AggFunc::Min | AggFunc::Max, AggDegree::One) => {
                Accumulator::Extreme(Extreme::new(agg))
            }
            _ => Accumulator::Set(GroupSet::default(), agg, agg_degree),
        }
    }

    /// Adds the member `v` at degree `d`.
    pub(crate) fn add(&mut self, v: &Value, d: Degree) {
        if v.is_null() || !d.is_positive() {
            return;
        }
        match self {
            Accumulator::Extreme(e) => e.add(v),
            Accumulator::Set(set, _, _) => set.add(v, d),
        }
    }

    /// Empties the group, keeping its allocations for the next one.
    pub(crate) fn clear(&mut self) {
        match self {
            Accumulator::Extreme(e) => *e = Extreme::new(e.agg),
            Accumulator::Set(set, _, _) => set.clear(),
        }
    }

    /// The aggregate and its degree; `None` means the NULL result of an
    /// empty non-COUNT group (T2 "contains no tuple for u").
    pub(crate) fn finish(&self) -> Result<Option<(Value, Degree)>> {
        match self {
            Accumulator::Extreme(e) => e.finish(),
            Accumulator::Set(set, agg, agg_degree) => set.aggregate(*agg, *agg_degree),
        }
    }
}

/// The running MIN or MAX of a group, the aggregate `fuzzy_min`/`fuzzy_max`
/// would pick from `T(r)`. Both scan `T(r)` under `defuzz_cmp`, a total
/// order in which only values with equal breakpoints compare equal, so
/// `T(r)` holds one member per class of that order: the class's first
/// occurrence. Replacing the extreme only by a strictly smaller (MIN) or
/// greater (MAX) value keeps that first occurrence, so dropping duplicates
/// cannot change the result, down to the sign of a zero breakpoint.
pub(crate) struct Extreme {
    agg: AggFunc,
    /// `Less` for MIN, `Greater` for MAX: the order a new value must have
    /// against the kept one to replace it.
    wins: Ordering,
    best: Option<Trapezoid>,
    /// The first non-numeric member, which is the one `apply_aggregate`
    /// would report for `T(r)`; the group's result is then that error.
    non_numeric: Option<Value>,
}

impl Extreme {
    fn new(agg: AggFunc) -> Self {
        let wins = if agg == AggFunc::Max { Ordering::Greater } else { Ordering::Less };
        Extreme { agg, wins, best: None, non_numeric: None }
    }

    fn add(&mut self, v: &Value) {
        match v.as_distribution() {
            Some(t) => {
                if self.best.is_none_or(|b| defuzz_cmp(&t, &b) == self.wins) {
                    self.best = Some(t);
                }
            }
            None => {
                if self.non_numeric.is_none() {
                    self.non_numeric = Some(v.clone());
                }
            }
        }
    }

    fn finish(&self) -> Result<Option<(Value, Degree)>> {
        if let Some(v) = &self.non_numeric {
            return Err(non_numeric_operand(self.agg, v));
        }
        Ok(self.best.map(|t| (Value::fuzzy(t), Degree::ONE)))
    }
}

/// The fuzzy set `T(r)` an aggregate is applied to: distinct values with
/// fuzzy-OR (max) degrees, in first-occurrence order (the order `SUM`/`AVG`
/// add members in).
#[derive(Default)]
pub(crate) struct GroupSet {
    members: Vec<(Value, Degree)>,
    index: HashMap<Value, usize, ValueHashBuilder>,
}

impl GroupSet {
    /// Adds a member; only a value not seen before is cloned.
    fn add(&mut self, v: &Value, d: Degree) {
        match self.index.get(v) {
            Some(&i) => self.members[i].1 = self.members[i].1.or(d),
            None => {
                self.index.insert(v.clone(), self.members.len());
                self.members.push((v.clone(), d));
            }
        }
    }

    fn clear(&mut self) {
        self.members.clear();
        self.index.clear();
    }

    fn aggregate(&self, agg: AggFunc, agg_degree: AggDegree) -> Result<Option<(Value, Degree)>> {
        let value = if agg == AggFunc::Count {
            Value::number(self.members.len() as f64)
        } else {
            let refs: Vec<&Value> = self.members.iter().map(|(v, _)| v).collect();
            match apply_aggregate(agg, &refs)? {
                Some(v) => v,
                None => return Ok(None),
            }
        };
        Ok(Some((value, agg_degree.of_group(self.members.iter().map(|&(_, d)| d)))))
    }
}

/// The aggregate's per-pair step. Under `Merge` and `Scan` it keeps the last
/// finished group and its key, so each run of outer tuples with one key (the
/// outer is sorted on it, or type A's tuples share one) folds its group once.
struct AggFold {
    /// p₁ and p₂, which only plain nested loop leaves to the operator.
    outer_local: Vec<BoundCompare>,
    inner_local: Vec<BoundCompare>,
    /// `S.V op₂ R.U` as (outer U, op₂, inner V).
    corr: Option<(usize, CmpOp, usize)>,
    agg_idx: usize,
    /// `R.Y` and op₁ of `R.Y op₁ A`.
    compare: (BoundOperand, CmpOp),
    select_idx: Vec<usize>,
    /// Whether `key` and `group` carry over (not under `NestedLoop`).
    memo: bool,
    /// The key whose group `group` holds; `None` before the first.
    key: Option<Value>,
    /// The last finished group's aggregate (`None`: the NULL aggregate).
    group: Option<(Value, Degree)>,
    /// The aggregate and its degree rule, which each new accumulator takes.
    agg: (AggFunc, AggDegree),
    /// A finished accumulator, cleared and reused by the next group.
    spare: Option<Accumulator>,
    rows: Vec<(Vec<Value>, Degree)>,
}

impl AggFold {
    /// `r`'s group key: its correlation value, or the one key all share.
    fn key_of<'a>(&self, r: &'a Tuple) -> &'a Value {
        const SHARED: &Value = &Value::Null;
        self.corr.map_or(SHARED, |(u, _, _)| &r.values[u])
    }
}

impl OuterFold for AggFold {
    /// `None`: `r`'s group is the memo's.
    type Acc = Option<Accumulator>;

    #[inline]
    fn open(&mut self, r: &Tuple, _: &mut OperatorMetrics) -> (Self::Acc, bool) {
        if self.memo && self.key.as_ref() == Some(self.key_of(r)) {
            return (None, false);
        }
        let mut acc = self.spare.take().unwrap_or_else(|| Accumulator::new(self.agg.0, self.agg.1));
        acc.clear();
        (Some(acc), true)
    }

    /// μ_T(r)(z) = max min(μ_S ∧ p₂, d(s.V op₂ r.U)).
    #[inline]
    fn add(
        &mut self,
        acc: &mut Self::Acc,
        r: &Tuple,
        s: &Tuple,
        m: &mut OperatorMetrics,
    ) -> Result<bool> {
        let mut d = fold_preds(s.degree, &self.inner_local, &s.values, m);
        if let Some((u, op2, v)) = self.corr {
            if d.is_positive() {
                m.fuzzy_comparisons += 1;
                d = d.and(s.values[v].compare(op2, &r.values[u]));
            }
        }
        if let Some(acc) = acc {
            acc.add(&s.values[self.agg_idx], d);
        }
        Ok(true)
    }

    /// `R.Y op₁ A` at μ_R ∧ p₁ ∧ D(A(r)); a NULL aggregate satisfies
    /// nothing. COUNT of an empty group is 0, never NULL, so its outer-join
    /// IF-THEN-ELSE `[R.Y op₁ T2.A : R.Y op₁ 0]` needs no branch of its own.
    #[inline]
    fn close(&mut self, r: &Tuple, acc: Self::Acc, m: &mut OperatorMetrics) -> Result<()> {
        let base = fold_preds(r.degree, &self.outer_local, &r.values, m);
        if !base.is_positive() {
            return Ok(());
        }
        if let Some(acc) = acc {
            self.group = acc.finish()?;
            if self.memo {
                self.key = Some(self.key_of(r).clone());
            }
            self.spare = Some(acc);
        }
        let Some((a, da)) = &self.group else { return Ok(()) };
        let (lhs, op1) = &self.compare;
        m.fuzzy_comparisons += 1;
        let d = base.and(*da).and(lhs.value(&r.values).compare(*op1, a));
        if d.is_positive() {
            m.tuples_out += 1;
            self.rows.push((crate::exec::project(r, &self.select_idx), d));
        }
        Ok(())
    }
}

impl Executor {
    /// The aggregate operator: evaluates `R.Y op₁ AGG(...)` per outer tuple
    /// over the inner tuples `access` presents, and returns the answer rows.
    pub(crate) fn aggregate(
        &mut self,
        outer_t: &StoredTable,
        inner_t: &StoredTable,
        plan: &AggPlan,
        access: &Access,
        m: &mut OperatorMetrics,
    ) -> Result<Vec<(Vec<Value>, Degree)>> {
        let outer_layout = Layout::of_table(&plan.outer);
        let inner_layout = Layout::of_table(&plan.inner);
        let corr = match &plan.corr {
            Some((u, op2, v)) => Some((outer_layout.resolve(u)?, *op2, inner_layout.resolve(v)?)),
            None => None,
        };
        let mut fold = AggFold {
            select_idx: outer_layout.projection(&plan.select)?.1,
            agg_idx: inner_layout.resolve(&plan.agg.1)?,
            compare: (outer_layout.bind_operand(&plan.compare.0)?, plan.compare.1),
            outer_local: outer_layout.bind_all(&plan.outer.local_preds)?,
            inner_local: inner_layout.bind_all(&plan.inner.local_preds)?,
            corr,
            memo: *access != Access::NestedLoop,
            key: None,
            group: None,
            agg: (plan.agg.0, plan.agg_degree),
            spare: None,
            rows: Vec::new(),
        };
        self.fold_outer(access, outer_t, inner_t, m, &mut fold)?;
        Ok(fold.rows)
    }
}
