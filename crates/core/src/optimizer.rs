//! Join-order optimization for flat plans.
//!
//! Section 8 of the paper notes that "to evaluate Query Q′_K, an optimal
//! join order may be determined by using, say, a dynamic programming method,
//! to minimize the sizes of the intermediate relations". This module
//! implements that step for the K-way flat plans the unnesting produces: a
//! greedy left-deep ordering over the equi-join graph (greedy is within a
//! constant of DP for the chain-shaped graphs unnesting yields, and the
//! plans here join on at most a handful of relations).
//!
//! The ordering minimizes estimated intermediate cardinalities:
//!
//! * base cardinality = the stored tuple count in the catalog snapshot the
//!   plan is lowered against, discounted per local predicate by a column
//!   histogram's selectivity when statistics are supplied, or by a fixed
//!   selectivity otherwise (the discount only needs to *rank* tables);
//! * only tables connected to the already-joined set by an equality
//!   predicate are candidates (otherwise the step degenerates to the
//!   nested-loop cross product, which the order should avoid whenever the
//!   join graph allows);
//! * ties break toward the original FROM order for plan stability.
//!
//! Reordering is semantically free: plans reference columns by
//! `(binding, attribute)`, so select lists and predicates are unaffected.

use crate::plan::{FlatPlan, PlanOperand};
use crate::stats_histogram::StatsRegistry;
use fuzzy_rel::Catalog;

/// Assumed selectivity of one local predicate when no statistics exist
/// (used for ranking only).
const LOCAL_PRED_SELECTIVITY: f64 = 0.5;

/// Estimated cardinality of a plan table after its local predicates, using
/// column histograms when a registry is supplied (the statistics-aware step
/// a real optimizer would take before Section 8's join ordering). The table
/// is read from `catalog`; one it does not hold estimates empty (its scan
/// reports the bind error when the plan runs).
fn estimate(t: &crate::plan::PlanTable, catalog: &Catalog, stats: Option<&StatsRegistry>) -> f64 {
    let Ok(table) = t.stored(catalog) else { return 0.0 };
    let mut est = table.num_tuples() as f64;
    for p in &t.local_preds {
        let sel = stats
            .and_then(|reg| {
                // Histogram estimates apply to column-vs-constant predicates.
                let (col, probe) = match (&p.lhs, &p.rhs) {
                    (PlanOperand::Col(c), PlanOperand::Const(v)) => (c, v),
                    (PlanOperand::Const(v), PlanOperand::Col(c)) => (c, v),
                    _ => return None,
                };
                let h = reg.histograms_for(table, &[col.attr]).ok()?.pop()?;
                // Similarity predicates behave like widened equality.
                let op = p.op;
                Some(h.selectivity(op, probe))
            })
            .unwrap_or(LOCAL_PRED_SELECTIVITY);
        est *= sel;
    }
    est
}

/// Reorders `plan.tables` into a greedy left-deep order that keeps every
/// join step connected by an equality predicate where possible, preferring
/// small (estimated, from `catalog` and `stats`) relations early. If the
/// order changed, returns the estimated cardinalities it was ranked on, one
/// per table in the new order; otherwise `None`.
pub fn reorder_joins_with(
    plan: &mut FlatPlan,
    catalog: &Catalog,
    stats: Option<&StatsRegistry>,
) -> Option<Vec<f64>> {
    let n = plan.tables.len();
    if n <= 2 {
        // With two tables the merge-join sorts both regardless; keeping the
        // outer block's relation first preserves the paper's presentation.
        return None;
    }
    // A pushed-down `WITH D > z` threshold prunes graded survivors of local
    // predicates before they are sorted (the executor's filter_scan and join
    // emission both apply it), so discount each predicate-bearing table by
    // the mass a threshold removes. Tables without local predicates keep
    // their full-degree base tuples and are unaffected.
    let threshold_factor = match plan.threshold {
        Some(t) => (1.0 - t.z).clamp(0.05, 1.0),
        None => 1.0,
    };
    let sizes: Vec<f64> = plan
        .tables
        .iter()
        .map(|t| {
            let est = estimate(t, catalog, stats);
            if t.local_preds.is_empty() {
                est
            } else {
                est * threshold_factor
            }
        })
        .collect();

    // Adjacency by equality predicates.
    let connected = |bound: &[usize], candidate: usize| -> bool {
        plan.join_preds.iter().any(|p| {
            bound.iter().any(|&b| {
                p.is_equi_between(&plan.tables[b].binding, &plan.tables[candidate].binding)
            })
        })
    };

    // Start from the smallest table.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let first =
        (0..n).min_by(|&a, &b| sizes[a].total_cmp(&sizes[b]).then(a.cmp(&b))).expect("non-empty");
    order.push(first);
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != first).collect();

    while !remaining.is_empty() {
        // Prefer connected candidates; among them the smallest.
        let pick = remaining
            .iter()
            .copied()
            .filter(|&c| connected(&order, c))
            .min_by(|&a, &b| sizes[a].total_cmp(&sizes[b]).then(a.cmp(&b)))
            .or_else(|| {
                remaining
                    .iter()
                    .copied()
                    .min_by(|&a, &b| sizes[a].total_cmp(&sizes[b]).then(a.cmp(&b)))
            })
            .expect("remaining non-empty");
        order.push(pick);
        remaining.retain(|&i| i != pick);
    }

    if order.iter().copied().eq(0..n) {
        return None;
    }
    let mut tables = std::mem::take(&mut plan.tables);
    // Drain in the chosen order without cloning the plan tables.
    let mut slots: Vec<Option<crate::plan::PlanTable>> = tables.drain(..).map(Some).collect();
    let ranked = order.iter().map(|&i| sizes[i]).collect();
    plan.tables =
        order.into_iter().map(|i| slots[i].take().expect("each index picked once")).collect();
    Some(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanCol, PlanCompare, PlanOperand, PlanTable, RewriteRule};
    use fuzzy_core::{CmpOp, Value};
    use fuzzy_rel::{AttrType, Schema, StoredTable, Tuple};
    use fuzzy_storage::SimDisk;

    /// A plan table over a fresh `rows`-tuple table registered in `catalog`.
    fn plan_table(catalog: &mut Catalog, name: &str, rows: usize, preds: usize) -> PlanTable {
        let disk = SimDisk::with_default_page_size();
        let t = StoredTable::create(&disk, name, Schema::of(&[("X", AttrType::Number)]));
        t.load((0..rows).map(|i| Tuple::full(vec![Value::number(i as f64)]))).unwrap();
        let mut pt = PlanTable::new(name, &t);
        catalog.register(t);
        let local_preds = (0..preds)
            .map(|_| {
                PlanCompare::new(
                    PlanOperand::Col(PlanCol { binding: name.into(), attr: 0 }),
                    CmpOp::Ge,
                    PlanOperand::Const(Value::number(0.0)),
                )
            })
            .collect();
        pt.local_preds = local_preds;
        pt
    }

    fn equi(a: &str, b: &str) -> PlanCompare {
        PlanCompare::new(
            PlanOperand::Col(PlanCol { binding: a.into(), attr: 0 }),
            CmpOp::Eq,
            PlanOperand::Col(PlanCol { binding: b.into(), attr: 0 }),
        )
    }

    fn bindings(p: &FlatPlan) -> Vec<&str> {
        p.tables.iter().map(|t| t.binding.as_str()).collect()
    }

    #[test]
    fn two_table_plans_are_left_alone() {
        let cat = &mut Catalog::new();
        let mut plan = FlatPlan {
            tables: vec![plan_table(cat, "A", 100, 0), plan_table(cat, "B", 1, 0)],
            join_preds: vec![equi("A", "B")],
            select: vec![],
            threshold: None,
            rule: RewriteRule::Flat,
        };
        assert!(reorder_joins_with(&mut plan, cat, None).is_none());
        assert_eq!(bindings(&plan), ["A", "B"]);
    }

    #[test]
    fn smallest_table_leads() {
        let cat = &mut Catalog::new();
        let mut plan = FlatPlan {
            tables: vec![
                plan_table(cat, "A", 1000, 0),
                plan_table(cat, "B", 10, 0),
                plan_table(cat, "C", 100, 0),
            ],
            join_preds: vec![equi("A", "B"), equi("B", "C"), equi("A", "C")],
            select: vec![],
            threshold: None,
            rule: RewriteRule::Flat,
        };
        assert!(reorder_joins_with(&mut plan, cat, None).is_some());
        assert_eq!(bindings(&plan), ["B", "C", "A"]);
    }

    #[test]
    fn connectivity_beats_size() {
        // D is tiny but only connected to A; the chain B–C–A must not be
        // broken by jumping to D early... since D connects only to A, and we
        // start from D (smallest), the next connected pick is A.
        let cat = &mut Catalog::new();
        let mut plan = FlatPlan {
            tables: vec![
                plan_table(cat, "A", 500, 0),
                plan_table(cat, "B", 50, 0),
                plan_table(cat, "C", 200, 0),
                plan_table(cat, "D", 5, 0),
            ],
            join_preds: vec![equi("A", "D"), equi("A", "C"), equi("B", "C")],
            select: vec![],
            threshold: None,
            rule: RewriteRule::Flat,
        };
        assert!(reorder_joins_with(&mut plan, cat, None).is_some());
        let order = bindings(&plan);
        assert_eq!(order[0], "D");
        assert_eq!(order[1], "A", "only A connects to D");
        // Each later step stays connected.
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn local_predicates_discount_size() {
        let cat = &mut Catalog::new();
        // B has 60 rows but two predicates: estimate 15 < A's 20.
        let mut plan = FlatPlan {
            tables: vec![
                plan_table(cat, "A", 20, 0),
                plan_table(cat, "B", 60, 2),
                plan_table(cat, "C", 100, 0),
            ],
            join_preds: vec![equi("A", "B"), equi("B", "C")],
            select: vec![],
            threshold: None,
            rule: RewriteRule::Flat,
        };
        let ranked = reorder_joins_with(&mut plan, cat, None);
        assert_eq!(bindings(&plan), ["B", "A", "C"]);
        assert_eq!(ranked, Some(vec![15.0, 20.0, 100.0]), "the estimates, in the new order");
    }

    #[test]
    fn already_optimal_order_reports_unchanged() {
        let cat = &mut Catalog::new();
        let mut plan = FlatPlan {
            tables: vec![
                plan_table(cat, "A", 1, 0),
                plan_table(cat, "B", 10, 0),
                plan_table(cat, "C", 100, 0),
            ],
            join_preds: vec![equi("A", "B"), equi("B", "C")],
            select: vec![],
            threshold: None,
            rule: RewriteRule::Flat,
        };
        assert!(reorder_joins_with(&mut plan, cat, None).is_none());
        assert_eq!(bindings(&plan), ["A", "B", "C"]);
    }
}
