//! External sort by the interval order `⪯` of Definition 3.1 on the join
//! attribute: the sort boundary of every merge-join, anti, and aggregate
//! pipeline. Accepts either a stored table (base relations, materialized
//! intermediates) or an in-memory pipelined row stream — the latter feeds
//! run generation directly, so the only disk traffic is the sort's own
//! spill (see DESIGN.md §11).

use crate::error::{EngineError, Result};
use crate::exec::op::Slot;
use crate::exec::{Executor, Layout};
use crate::metrics::OpKind;
use crate::plan::PlanCol;
use crate::verify::{PhysOp, Prop};
use fuzzy_core::interval_order::OrderKey;
use fuzzy_core::Degree;
use fuzzy_rel::{Schema, StoredTable, Tuple};
use fuzzy_storage::{external_sort_parallel, external_sort_records};

/// Declaration of a sort over one base relation's stream (anti/agg pipelines
/// and flat right-hand sides sort at the step's α-cut).
pub(crate) fn declared_properties_base(
    input: usize,
    binding: &str,
    col: &PlanCol,
    alpha: Degree,
) -> PhysOp {
    PhysOp::declare(
        format!("sort {binding} by {col}"),
        vec![input],
        vec![(0, Prop::Binding(col.binding.clone())), (0, Prop::MinDegree(alpha))],
        vec![
            Prop::Binding(binding.to_string()),
            Prop::Sorted { col: col.clone(), alpha },
            Prop::MinDegree(alpha),
        ],
    )
}

/// Declaration of a sort over the bound (already-joined) side of a flat join
/// step: delivers every bound binding plus the ⪯ order on the driver column.
pub(crate) fn declared_properties_bound(
    input: usize,
    bound: &[String],
    col: &PlanCol,
    alpha: Degree,
) -> PhysOp {
    PhysOp::declare(
        format!("sort [{}] by {col}", bound.join("×")),
        vec![input],
        vec![(0, Prop::Binding(col.binding.clone())), (0, Prop::MinDegree(alpha))],
        bound
            .iter()
            .map(|b| Prop::Binding(b.clone()))
            .chain([Prop::Sorted { col: col.clone(), alpha }, Prop::MinDegree(alpha)])
            .collect(),
    )
}

impl Executor {
    /// The sort operator: sorts its input — a stored table or a pipelined
    /// row buffer laid out as `layout` — by `col` at the α-cut `alpha`.
    pub(crate) fn sort_input(
        &mut self,
        input: Slot,
        layout: &Layout,
        col: &PlanCol,
        alpha: Degree,
        label: String,
    ) -> Result<StoredTable> {
        let attr = layout.resolve(col)?;
        match input {
            Slot::Rows(rows) => self.sort_rows(rows, layout.to_schema(), attr, alpha, label),
            Slot::Table(t) => self.sort_table(&t, attr, alpha, label),
            _ => Err(EngineError::Verify(format!("input of {label} is neither a table nor rows"))),
        }
    }

    /// Sorts a table by the interval order `⪯` of the α-cut intervals on
    /// attribute `attr` (α = 0 is the paper's support order), attributing
    /// run counts, comparisons, and spill I/O to a registered sort operator.
    /// The sort key is the attribute's [`OrderKey`] at `alpha` (its α-cut
    /// endpoints and breakpoints), extracted once per record read, so no
    /// comparison recomputes an α-cut; a record whose attribute does not
    /// decode fails the sort with `StorageError::Corrupt`. Run generation parallelizes across
    /// `ExecConfig::threads` with bit-identical batch cuts and counters (see
    /// `external_sort_parallel`).
    pub(crate) fn sort_table(
        &mut self,
        table: &StoredTable,
        attr: usize,
        alpha: Degree,
        label: String,
    ) -> Result<StoredTable> {
        let g = self.begin_op(OpKind::Sort, label);
        let (file, stats) = external_sort_parallel(
            &self.disk,
            table.file(),
            self.config.sort_pages,
            self.config.threads,
            |r| Tuple::decode_value_at(r, attr).map(|v| OrderKey::at(&v, alpha)),
            OrderKey::cmp_key,
        )?;
        let m = self.metrics.op_mut(g.id);
        m.tuples_in = table.num_tuples();
        m.tuples_out = table.num_tuples();
        m.sort_runs = stats.initial_runs as u64;
        m.sort_comparisons = stats.comparisons;
        self.end_op(g);
        Ok(table.with_file(self.temp_name("sorted"), file))
    }

    /// Sorts an in-memory pipelined row buffer — the output of an upstream
    /// join step that was never materialized — into a stored table. The rows
    /// feed run generation directly (`external_sort_records`), so batch
    /// cuts, run contents, and comparison counts are exactly what
    /// [`Executor::sort_table`] would have produced had the rows been
    /// written to a temp table and re-scanned, minus that write and re-scan.
    /// Run generation is serial regardless of `ExecConfig::threads`: the
    /// record stream arrives in the (deterministic) serial emission order,
    /// and the counters stay bit-identical across thread counts because the
    /// serial path is the only path.
    pub(crate) fn sort_rows(
        &mut self,
        rows: Vec<Tuple>,
        schema: Schema,
        attr: usize,
        alpha: Degree,
        label: String,
    ) -> Result<StoredTable> {
        let g = self.begin_op(OpKind::Sort, label);
        let n = rows.len() as u64;
        let (file, stats) = external_sort_records(
            &self.disk,
            rows.into_iter().map(|t| t.encode(0)),
            self.config.sort_pages,
            |r| Tuple::decode_value_at(r, attr).map(|v| OrderKey::at(&v, alpha)),
            OrderKey::cmp_key,
        )?;
        let m = self.metrics.op_mut(g.id);
        m.tuples_in = n;
        m.tuples_out = n;
        m.sort_runs = stats.initial_runs as u64;
        m.sort_comparisons = stats.comparisons;
        self.end_op(g);
        let shell_name = self.temp_name("pipe");
        let shell = StoredTable::create(&self.disk, shell_name, schema);
        Ok(shell.with_file(self.temp_name("sorted"), file))
    }
}
