//! The aggregate operator: pipelined T1/T2/COUNT′ evaluation (Theorem 6.1
//! and the type-A constant case) with the COUNT outer-join IF-THEN-ELSE for
//! empty groups, plus [`GroupSet`], the fuzzy set `T(r)` an aggregate is
//! applied to. Under the nested-loop baselines the same evaluation runs
//! over a block nested loop that builds `T(r)` per outer tuple.

use crate::error::{EngineError, Result};
use crate::exec::{fold_preds, BoundOperand, Executor, Layout};
use crate::metrics::{OpKind, OperatorMetrics};
use crate::naive::apply_aggregate;
use crate::plan::{AggPlan, PlanCol, PlanCompare, PlanOperand};
use crate::verify::{PhysOp, Prop};
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

/// How the aggregate operator consumes its inputs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggMode {
    /// Type A: uncorrelated inner block — the aggregate is a constant.
    Const,
    /// Correlated on equality: pipelined merge grouping over sorted inputs.
    Merge,
    /// Correlated on a non-equality: sorted outer against the full inner set.
    Scan,
    /// Block nested loop (the baselines): `T(r)` built per outer tuple from
    /// every inner tuple; evaluates the local predicates its plan's tables
    /// still carry, p₁ per outer tuple and p₂ per pair.
    NestedLoop,
}

/// Declaration of an aggregate over two unsorted scans: the type-A constant
/// (`agg-const`) or the baselines' block nested loop (`nested-loop-agg`).
pub(crate) fn declared_properties_unsorted(
    name: &str,
    plan: &AggPlan,
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

/// Declaration of the pipelined merge-grouping aggregate over ⪯-sorted
/// inputs (correlation predicate `R.U = S.V`).
pub(crate) fn declared_properties_merge(
    plan: &AggPlan,
    ucol: &PlanCol,
    vcol: &PlanCol,
    sort_o: usize,
    sort_i: usize,
) -> PhysOp {
    let z = Degree::ZERO;
    PhysOp::declare(
        format!("agg-merge {} x {}", plan.outer.binding, plan.inner.binding),
        vec![sort_o, sort_i],
        vec![
            (0, Prop::Sorted { col: ucol.clone(), alpha: z }),
            (1, Prop::Sorted { col: vcol.clone(), alpha: z }),
            (0, Prop::Binding(plan.outer.binding.clone())),
            (1, Prop::Binding(plan.inner.binding.clone())),
        ],
        vec![Prop::Binding(plan.outer.binding.clone()), Prop::MinDegree(z)],
    )
}

/// Declaration of the scan-mode aggregate: sorted outer, full inner set.
pub(crate) fn declared_properties_scan(
    plan: &AggPlan,
    ucol: &PlanCol,
    sort_o: usize,
    scan_i: usize,
) -> PhysOp {
    let z = Degree::ZERO;
    PhysOp::declare(
        format!("agg-scan {} x {}", plan.outer.binding, plan.inner.binding),
        vec![sort_o, scan_i],
        vec![
            (0, Prop::Sorted { col: ucol.clone(), alpha: z }),
            (0, Prop::Binding(plan.outer.binding.clone())),
            (1, Prop::Binding(plan.inner.binding.clone())),
        ],
        vec![Prop::Binding(plan.outer.binding.clone()), Prop::MinDegree(z)],
    )
}

impl Executor {
    /// The aggregate operator: evaluates `R.Y op1 AGG(...)` per outer tuple
    /// (constant, merge grouping, scanned inner set, or block nested loop by
    /// `mode`) and returns the answer rows.
    pub(crate) fn aggregate(
        &mut self,
        outer_t: &StoredTable,
        inner_t: &StoredTable,
        plan: &AggPlan,
        mode: AggMode,
        label: String,
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

        match mode {
            AggMode::Const => {
                // Type A: the inner block is a constant; compute it once.
                let g = self.begin_op(OpKind::Aggregate, label);
                let pool = self.pool(self.config.buffer_pages);
                let mut set = GroupSet::default();
                let mut m = OperatorMetrics::default();
                for s in inner_t.scan(&pool) {
                    let s = s?;
                    m.tuples_in += 1;
                    m.pairs_examined += 1;
                    set.add(s.values[agg_idx].clone(), s.degree);
                }
                let group = set.aggregate(agg, plan.agg_degree)?;
                let opool = self.pool(1);
                for r in outer_t.scan(&opool) {
                    let r = r?;
                    m.tuples_in += 1;
                    emit_outer(&r, r.degree, group.as_ref(), &mut rows, &mut m);
                }
                m.add_pool(&pool.stats());
                m.add_pool(&opool.stats());
                self.absorb_op(&g, &m);
                self.end_op(g);
            }
            AggMode::Merge => {
                let Some((ucol, _, vcol)) = plan.corr.as_ref() else {
                    return Err(EngineError::Verify(
                        "agg-merge lowered without a correlation".into(),
                    ));
                };
                // Pipelined merge grouping (Section 6): outer sorted on U,
                // inner sorted on V; identical U values are adjacent, so
                // each distinct u computes T'(u) from its window once.
                let mut cache: Option<(Value, Option<(Value, Degree)>)> = None;
                let mut set = GroupSet::default();
                let uattr = ucol.attr;
                let vattr = vcol.attr;
                let agg_degree = plan.agg_degree;
                let mut agg_err: Option<EngineError> = None;
                let merge_res = self.merge_window(
                    outer_t,
                    uattr,
                    inner_t,
                    vattr,
                    Degree::ZERO,
                    OpKind::Aggregate,
                    label,
                    |r, rng, m| {
                        let u = &r.values[uattr];
                        let hit = matches!(&cache, Some((cu, _)) if cu == u);
                        if !hit {
                            set.clear();
                            for s in rng {
                                // μ_T'(u)(z) = max min(μ_S∧p₂, d(s.V = u));
                                // op2 = Eq here.
                                m.fuzzy_comparisons += 1;
                                let d = s.degree.and(s.values[vattr].compare(CmpOp::Eq, u));
                                if d.is_positive() {
                                    set.add(s.values[agg_idx].clone(), d);
                                }
                            }
                            match set.aggregate(agg, agg_degree) {
                                Ok(g) => cache = Some((u.clone(), g)),
                                Err(e) => {
                                    agg_err = Some(e.clone());
                                    return Err(e);
                                }
                            }
                        }
                        let group = cache.as_ref().expect("just set").1.as_ref();
                        emit_outer(r, r.degree, group, &mut rows, m);
                        Ok(())
                    },
                );
                if let Some(e) = agg_err {
                    return Err(e);
                }
                merge_res?;
            }
            AggMode::Scan => {
                let Some((ucol, op2, vcol)) = plan.corr.as_ref() else {
                    return Err(EngineError::Verify(
                        "agg-scan lowered without a correlation".into(),
                    ));
                };
                // Non-equality op2: T'(u) cannot be window-scanned; build
                // the reduced inner set once and scan it per distinct u.
                let g = self.begin_op(OpKind::Aggregate, label);
                let pool = self.pool(self.config.buffer_pages);
                let inner_all: Vec<Tuple> =
                    inner_t.scan(&pool).collect::<fuzzy_storage::Result<_>>()?;
                let opool = self.pool(1);
                let mut cache: Option<(Value, Option<(Value, Degree)>)> = None;
                let mut set = GroupSet::default();
                let mut m = OperatorMetrics::default();
                m.tuples_in += inner_all.len() as u64;
                for r in outer_t.scan(&opool) {
                    let r = r?;
                    m.tuples_in += 1;
                    let u = &r.values[ucol.attr];
                    let hit = matches!(&cache, Some((cu, _)) if cu == u);
                    if !hit {
                        set.clear();
                        for s in &inner_all {
                            m.pairs_examined += 1;
                            m.fuzzy_comparisons += 1;
                            let d = s.degree.and(s.values[vcol.attr].compare(*op2, u));
                            if d.is_positive() {
                                set.add(s.values[agg_idx].clone(), d);
                            }
                        }
                        cache = Some((u.clone(), set.aggregate(agg, plan.agg_degree)?));
                    }
                    let group = cache.as_ref().expect("just set").1.as_ref();
                    emit_outer(&r, r.degree, group, &mut rows, &mut m);
                }
                m.add_pool(&pool.stats());
                m.add_pool(&opool.stats());
                self.absorb_op(&g, &m);
                self.end_op(g);
            }
            AggMode::NestedLoop => {
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
                    OpKind::Aggregate,
                    label,
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
