//! The aggregate operator: pipelined T1/T2/COUNT′ evaluation (Theorem 6.1
//! and the type-A constant case) with the COUNT outer-join IF-THEN-ELSE for
//! empty groups, plus [`Accumulator`], what each group is folded into before
//! the aggregate is applied. Under the nested-loop baselines the same
//! evaluation runs over a block nested loop with one accumulator per outer
//! tuple.

use crate::error::Result;
use crate::exec::lower::Access;
use crate::exec::merge_join::merge_window;
use crate::exec::{fold_preds, BoundOperand, Executor, Layout};
use crate::metrics::OperatorMetrics;
use crate::naive::{apply_aggregate, non_numeric_operand};
use crate::plan::{AggDegree, AggPlan, PlanCompare, PlanOperand};
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
/// non-positive degrees are not members. An operator creates one
/// accumulator and [`Accumulator::clear`]s it per group, so allocations are
/// reused across groups.
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

/// The aggregate of the last outer value seen: each distinct value's group
/// `T'(u)` is folded into one reused [`Accumulator`] and finished once,
/// while outer tuples with an equal value follow each other (the outer is
/// sorted on it, or the value is the one shared by every outer tuple).
struct GroupCache {
    /// The value whose aggregate `group` holds; `None` before the first.
    key: Option<Value>,
    /// The aggregate of `key`'s group (`None`: the NULL aggregate).
    group: Option<(Value, Degree)>,
    acc: Accumulator,
}

impl GroupCache {
    fn new(plan: &AggPlan) -> Self {
        GroupCache { key: None, group: None, acc: Accumulator::new(plan.agg.0, plan.agg_degree) }
    }

    /// The aggregate of `u`'s group, which `fill` adds to a cleared
    /// accumulator unless the last call asked for an equal value.
    fn get(
        &mut self,
        u: &Value,
        fill: impl FnOnce(&mut Accumulator),
    ) -> Result<Option<&(Value, Degree)>> {
        if self.key.as_ref() != Some(u) {
            self.acc.clear();
            fill(&mut self.acc);
            self.group = self.acc.finish()?;
            self.key = Some(u.clone());
        }
        Ok(self.group.as_ref())
    }
}

impl Executor {
    /// The aggregate operator: evaluates `R.Y op1 AGG(...)` per outer tuple
    /// (merge grouping, scanned inner set, or block nested loop by `access`)
    /// and returns the answer rows.
    pub(crate) fn aggregate(
        &mut self,
        outer_t: &StoredTable,
        inner_t: &StoredTable,
        plan: &AggPlan,
        access: &Access,
        m: &mut OperatorMetrics,
    ) -> Result<Vec<(Vec<Value>, Degree)>> {
        let outer_layout = Layout::of_table(&plan.outer);
        let (_, select_idx) = outer_layout.projection(&plan.select)?;
        let (agg, agg_col) = (plan.agg.0, &plan.agg.1);
        let inner_layout = Layout::of_table(&plan.inner);
        let agg_idx = inner_layout.resolve(agg_col)?;
        let lhs_bound = outer_layout.bind(&PlanCompare {
            lhs: plan.compare.0.clone(),
            op: plan.compare.1,
            rhs: PlanOperand::Const(Value::Null), // placeholder; rhs injected per group
            tolerance: None,
        })?;
        let op1 = plan.compare.1;
        let mut rows: Vec<(Vec<Value>, Degree)> = Vec::new();

        // Applies R.Y op1 A to one outer tuple of degree `base` (μ_R, or
        // μ_R ∧ p₁ when p₁ is evaluated inline), honouring the COUNT
        // outer-join IF-THEN-ELSE for empty groups.
        let emit_outer = |r: &Tuple,
                          base: Degree,
                          group: Option<&(Value, Degree)>,
                          rows: &mut Vec<(Vec<Value>, Degree)>,
                          m: &mut OperatorMetrics| {
            let lhs_val = match &lhs_bound.lhs {
                BoundOperand::Col(i) => r.values[*i].clone(),
                BoundOperand::Const(v) => v.clone(),
            };
            let d = match group {
                Some((a, da)) => {
                    m.fuzzy_comparisons += 1;
                    base.and(*da).and(lhs_val.compare(op1, a))
                }
                None => {
                    if agg == AggFunc::Count {
                        // COUNT': [R.Y op1 T2.A : R.Y op1 0] — the ELSE branch.
                        m.fuzzy_comparisons += 1;
                        base.and(lhs_val.compare(op1, &Value::number(0.0)))
                    } else {
                        Degree::ZERO // NULL aggregate satisfies nothing
                    }
                }
            };
            if d.is_positive() {
                m.tuples_out += 1;
                rows.push((crate::exec::project(r, &select_idx), d));
            }
        };

        match access {
            Access::Merge { outer: ucol, inner: vcol } => {
                // Pipelined merge grouping (Section 6): outer sorted on U,
                // inner sorted on V; identical U values are adjacent, so
                // each distinct u computes T'(u) from its window once.
                let mut groups = GroupCache::new(plan);
                let (uattr, vattr) = (ucol.attr, vcol.attr);
                merge_window(outer_t, uattr, inner_t, vattr, Degree::ZERO, m, |r, rng, m| {
                    let u = &r.values[uattr];
                    let group = groups.get(u, |acc| {
                        for s in rng {
                            // μ_T'(u)(z) = max min(μ_S∧p₂, d(s.V = u));
                            // op2 = Eq here.
                            m.fuzzy_comparisons += 1;
                            let d = s.degree.and(s.values[vattr].compare(CmpOp::Eq, u));
                            acc.add(&s.values[agg_idx], d);
                        }
                    })?;
                    emit_outer(r, r.degree, group, &mut rows, m);
                    Ok(())
                })?;
            }
            Access::Scan => {
                // The reduced inner set is built once and scanned per
                // distinct u: a non-equality op2 cannot window it. The
                // uncorrelated type A has one group, the inner block's
                // constant, built at the first outer tuple like any other:
                // an empty outer forms no group, so it never applies the
                // aggregate.
                let inner_all: Vec<Tuple> = inner_t.scan().collect::<fuzzy_storage::Result<_>>()?;
                m.tuples_in += inner_all.len() as u64;
                let fill = |acc: &mut Accumulator, u: &Value, m: &mut OperatorMetrics| {
                    for s in &inner_all {
                        m.pairs_examined += 1;
                        let mut d = s.degree;
                        if let Some((_, op2, vcol)) = &plan.corr {
                            m.fuzzy_comparisons += 1;
                            d = d.and(s.values[vcol.attr].compare(*op2, u));
                        }
                        acc.add(&s.values[agg_idx], d);
                    }
                };
                let mut groups = GroupCache::new(plan);
                // The key of every outer tuple when there is no correlation.
                let shared = Value::Null;
                for r in outer_t.scan() {
                    let r = r?;
                    m.tuples_in += 1;
                    let u = plan.corr.as_ref().map_or(&shared, |(ucol, _, _)| &r.values[ucol.attr]);
                    let group = groups.get(u, |acc| fill(acc, u, m))?;
                    emit_outer(&r, r.degree, group, &mut rows, m);
                }
            }
            Access::NestedLoop => {
                // μ_T(r)(z) = max min(μ_S ∧ p₂, d(s.V op₂ r.U)) over every
                // inner tuple, then R.Y op1 A at μ_R ∧ p₁.
                let outer_local = outer_layout.bind_all(&plan.outer.local_preds)?;
                let inner_local = inner_layout.bind_all(&plan.inner.local_preds)?;
                let corr = match &plan.corr {
                    Some((u, op2, v)) => {
                        Some((outer_layout.resolve(u)?, *op2, inner_layout.resolve(v)?))
                    }
                    None => None,
                };
                self.block_nested_loop(
                    outer_t,
                    inner_t,
                    m,
                    |_, _| Accumulator::new(agg, plan.agg_degree),
                    |acc, r, s, m| {
                        let mut d = fold_preds(s.degree, &inner_local, &s.values, m);
                        if let Some((u, op2, v)) = corr {
                            if d.is_positive() {
                                m.fuzzy_comparisons += 1;
                                d = d.and(s.values[v].compare(op2, &r.values[u]));
                            }
                        }
                        acc.add(&s.values[agg_idx], d);
                        Ok(())
                    },
                    |r, acc, m| {
                        let base = fold_preds(r.degree, &outer_local, &r.values, m);
                        if base.is_positive() {
                            let group = acc.finish()?;
                            emit_outer(&r, base, group.as_ref(), &mut rows, m);
                        }
                        Ok(())
                    },
                )?;
            }
        }
        Ok(rows)
    }
}
