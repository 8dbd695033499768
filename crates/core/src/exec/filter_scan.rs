//! Filter scan: folds a table's local predicates (the paper's p_i) into
//! tuple degrees, materializing only the positive survivors ("only those
//! tuples that satisfy p_i positively should be sorted" — Section 3). A
//! pushed-down `WITH D > z` bound additionally prunes tuples already below
//! the threshold.

use crate::error::Result;
use crate::exec::{Executor, Layout};
use crate::metrics::{OpKind, OperatorMetrics};
use crate::plan::PlanTable;
use crate::verify::{PhysOp, Prop};
use fuzzy_core::Degree;
use fuzzy_rel::StoredTable;

/// The scan's property declaration: no inputs, delivers the table binding's
/// columns and the pushed-down degree bound.
pub(crate) fn declared_properties(binding: &str, min_degree: Degree) -> PhysOp {
    PhysOp::declare(
        format!("scan {binding}"),
        vec![],
        vec![],
        vec![Prop::Binding(binding.to_string()), Prop::MinDegree(min_degree)],
    )
}

impl Executor {
    /// Applies a table's local predicates (p_i), materializing positive
    /// survivors. `min_degree` additionally prunes tuples that can never
    /// survive a pushed-down `WITH` threshold (their degree already falls
    /// below it, and fuzzy AND cannot recover). With no predicates and no
    /// bound the table is passed through untouched.
    pub(crate) fn filter_scan(
        &mut self,
        t: &PlanTable,
        min_degree: Degree,
        label: String,
    ) -> Result<StoredTable> {
        let g = self.begin_op(OpKind::Scan, label);
        if t.local_preds.is_empty() && !min_degree.is_positive() {
            let m = self.metrics.op_mut(g.id);
            m.tuples_in = t.table.num_tuples();
            m.tuples_out = t.table.num_tuples();
            self.end_op(g);
            return Ok(t.table.clone());
        }
        let layout = Layout::of_table(t);
        let preds = layout.bind_all(&t.local_preds)?;
        let pool = self.pool(2);
        let name = self.temp_name("filter");
        let out = StoredTable::create_padded(
            &self.disk,
            name,
            t.table.schema().clone(),
            t.table.min_record_bytes(),
        );
        let mut w = out.file().bulk_writer();
        let mut m = OperatorMetrics::default();
        for tuple in t.table.scan(&pool) {
            let mut tuple = tuple?;
            m.tuples_in += 1;
            let mut d = tuple.degree;
            for p in &preds {
                m.fuzzy_comparisons += 1;
                d = d.and(p.eval(&tuple.values));
                if !d.is_positive() {
                    break;
                }
            }
            if d.is_positive() && d.meets(min_degree, false) {
                tuple.degree = d;
                m.tuples_out += 1;
                w.append(&tuple.encode(out.min_record_bytes()))?;
            } else if d.is_positive() {
                m.pairs_pruned += 1;
            }
        }
        w.finish()?;
        m.add_pool(&pool.stats());
        self.absorb_op(&g, &m);
        self.end_op(g);
        Ok(out)
    }
}
