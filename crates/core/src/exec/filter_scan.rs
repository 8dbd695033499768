//! Filter scan: folds a table's local predicates (the paper's p_i) into
//! tuple degrees, materializing only the positive survivors ("only those
//! tuples that satisfy p_i positively should be sorted" — Section 3). A
//! pushed-down `WITH D > z` bound additionally prunes tuples already below
//! the threshold. The scan is where a plan meets the data: it binds its
//! table's name through the statement's catalog snapshot, so a cached plan
//! reads the table's current file.

use crate::error::Result;
use crate::exec::{Executor, Layout};
use crate::metrics::OperatorMetrics;
use crate::plan::PlanTable;
use fuzzy_core::Degree;
use fuzzy_rel::{Catalog, StoredTable};

impl Executor {
    /// Applies a table's local predicates (p_i), materializing positive
    /// survivors. `min_degree` additionally prunes tuples that can never
    /// survive a pushed-down `WITH` threshold (their degree already falls
    /// below it, and fuzzy AND cannot recover). With no predicates and no
    /// bound the table is passed through untouched. The table is the one
    /// `catalog` — the statement's snapshot — holds under the plan's name.
    pub(crate) fn filter_scan(
        &mut self,
        t: &PlanTable,
        catalog: &Catalog,
        min_degree: Degree,
        m: &mut OperatorMetrics,
    ) -> Result<StoredTable> {
        let table = t.stored(catalog)?;
        if t.local_preds.is_empty() && !min_degree.is_positive() {
            m.tuples_in = table.num_tuples();
            m.tuples_out = table.num_tuples();
            return Ok(table.clone());
        }
        let layout = Layout::of_table(t);
        let preds = layout.bind_all(&t.local_preds)?;
        let name = self.temp_name("filter");
        let out = StoredTable::create_padded(
            &self.disk,
            name,
            table.schema().clone(),
            table.min_record_bytes(),
        );
        let mut w = out.file().bulk_writer();
        for tuple in table.scan() {
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
        Ok(out)
    }
}
