//! The aggregate operator: pipelined T1/T2/COUNT′ evaluation (Theorem 6.1
//! and the type-A constant case) with the COUNT outer-join IF-THEN-ELSE for
//! empty groups, plus [`GroupSet`], the fuzzy set `T(r)` an aggregate is
//! applied to. Under the nested-loop baselines the same evaluation runs
//! over a block nested loop that builds `T(r)` per outer tuple.

use crate::error::{EngineError, Result};
use crate::exec::lower::{declare_two_input, Access};
use crate::exec::merge_join::merge_window;
use crate::exec::{fold_preds, BoundOperand, Executor, Layout};
use crate::metrics::OperatorMetrics;
use crate::naive::apply_aggregate;
use crate::plan::{AggPlan, PlanCol, PlanCompare, PlanOperand};
use crate::verify::PhysOp;
use fuzzy_core::hash::ValueHashBuilder;
use fuzzy_core::{CmpOp, Degree, Value};
use fuzzy_rel::{StoredTable, Tuple};
use fuzzy_sql::AggFunc;
use std::collections::HashMap;

/// The fuzzy set `T(r)` an aggregate is applied to: distinct values with
/// fuzzy-OR (max) degrees, in first-occurrence order (the order `SUM`/`AVG`
/// add members in). An operator creates one set and [`GroupSet::clear`]s it
/// per group, so the index map's allocation is reused across groups.
#[derive(Default)]
pub(crate) struct GroupSet {
    members: Vec<(Value, Degree)>,
    index: HashMap<Value, usize, ValueHashBuilder>,
}

impl GroupSet {
    pub(crate) fn add(&mut self, v: Value, d: Degree) {
        if v.is_null() || !d.is_positive() {
            return;
        }
        match self.index.get(&v) {
            Some(&i) => self.members[i].1 = self.members[i].1.or(d),
            None => {
                self.index.insert(v.clone(), self.members.len());
                self.members.push((v, d));
            }
        }
    }

    /// Empties the set, keeping its allocations for the next group.
    pub(crate) fn clear(&mut self) {
        self.members.clear();
        self.index.clear();
    }

    /// Applies the aggregate; `None` means the NULL result of an empty
    /// non-COUNT group (T2 "contains no tuple for u").
    pub(crate) fn aggregate(
        &self,
        agg: AggFunc,
        agg_degree: crate::plan::AggDegree,
    ) -> Result<Option<(Value, Degree)>> {
        if self.members.is_empty() && agg != AggFunc::Count {
            return Ok(None);
        }
        let refs: Vec<&Value> = self.members.iter().map(|(v, _)| v).collect();
        let value = apply_aggregate(agg, &refs)?.expect("non-empty or COUNT");
        let member_degrees: Vec<Degree> = self.members.iter().map(|&(_, d)| d).collect();
        Ok(Some((value, agg_degree.of_group(&member_degrees))))
    }
}

/// The aggregate of the last outer value seen: each distinct value's group
/// `T'(u)` is built into one reused [`GroupSet`] and aggregated once, while
/// outer tuples with an equal value follow each other (the outer is sorted
/// on it, or the value is the one shared by every outer tuple).
#[derive(Default)]
struct GroupCache {
    /// The value whose aggregate `group` holds; `None` before the first.
    key: Option<Value>,
    /// The aggregate of `key`'s group (`None`: the NULL aggregate).
    group: Option<(Value, Degree)>,
    set: GroupSet,
}

impl GroupCache {
    /// The aggregate of `u`'s group, which `fill` adds to a cleared set
    /// unless the last call asked for an equal value.
    fn get(
        &mut self,
        u: &Value,
        plan: &AggPlan,
        fill: impl FnOnce(&mut GroupSet),
    ) -> Result<Option<&(Value, Degree)>> {
        if self.key.as_ref() != Some(u) {
            self.set.clear();
            fill(&mut self.set);
            self.group = self.set.aggregate(plan.agg.0, plan.agg_degree)?;
            self.key = Some(u.clone());
        }
        Ok(self.group.as_ref())
    }
}

/// Declaration of the aggregate in `access` mode over `inputs` (outer,
/// inner), each ⪯-sorted on its `sorted` column where it has one. The
/// uncorrelated scan is the type-A constant, `agg-const`.
pub(crate) fn declared_properties(
    plan: &AggPlan,
    access: Access,
    inputs: [usize; 2],
    sorted: [Option<&PlanCol>; 2],
) -> PhysOp {
    let name = match (access, &plan.corr) {
        (Access::Merge, _) => "agg-merge",
        (Access::Scan, Some(_)) => "agg-scan",
        (Access::Scan, None) => "agg-const",
        (Access::NestedLoop, _) => "nested-loop-agg",
    };
    declare_two_input(name, [&plan.outer, &plan.inner], inputs, sorted)
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
        access: Access,
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
            Access::Merge => {
                let Some((ucol, _, vcol)) = plan.corr.as_ref() else {
                    return Err(EngineError::Verify(
                        "agg-merge lowered without a correlation".into(),
                    ));
                };
                // Pipelined merge grouping (Section 6): outer sorted on U,
                // inner sorted on V; identical U values are adjacent, so
                // each distinct u computes T'(u) from its window once.
                let mut groups = GroupCache::default();
                let (uattr, vattr) = (ucol.attr, vcol.attr);
                merge_window(outer_t, uattr, inner_t, vattr, Degree::ZERO, m, |r, rng, m| {
                    let u = &r.values[uattr];
                    let group = groups.get(u, plan, |set| {
                        for s in rng {
                            // μ_T'(u)(z) = max min(μ_S∧p₂, d(s.V = u));
                            // op2 = Eq here.
                            m.fuzzy_comparisons += 1;
                            let d = s.degree.and(s.values[vattr].compare(CmpOp::Eq, u));
                            if d.is_positive() {
                                set.add(s.values[agg_idx].clone(), d);
                            }
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
                let fill = |set: &mut GroupSet, u: &Value, m: &mut OperatorMetrics| {
                    for s in &inner_all {
                        m.pairs_examined += 1;
                        let mut d = s.degree;
                        if let Some((_, op2, vcol)) = &plan.corr {
                            m.fuzzy_comparisons += 1;
                            d = d.and(s.values[vcol.attr].compare(*op2, u));
                        }
                        if d.is_positive() {
                            set.add(s.values[agg_idx].clone(), d);
                        }
                    }
                };
                let mut groups = GroupCache::default();
                // The key of every outer tuple when there is no correlation.
                let shared = Value::Null;
                for r in outer_t.scan() {
                    let r = r?;
                    m.tuples_in += 1;
                    let u = plan.corr.as_ref().map_or(&shared, |(ucol, _, _)| &r.values[ucol.attr]);
                    let group = groups.get(u, plan, |set| fill(set, u, m))?;
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
                    |_, _| GroupSet::default(),
                    |set, r, s, m| {
                        let mut d = fold_preds(s.degree, &inner_local, &s.values, m);
                        if let Some((u, op2, v)) = corr {
                            if d.is_positive() {
                                m.fuzzy_comparisons += 1;
                                d = d.and(s.values[v].compare(op2, &r.values[u]));
                            }
                        }
                        if d.is_positive() {
                            set.add(s.values[agg_idx].clone(), d);
                        }
                        Ok(())
                    },
                    |r, set, m| {
                        let base = fold_preds(r.degree, &outer_local, &r.values, m);
                        if base.is_positive() {
                            let group = set.aggregate(agg, plan.agg_degree)?;
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
