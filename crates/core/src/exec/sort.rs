//! External sort by the interval order `⪯` of Definition 3.1 on the join
//! attribute: the sort boundary of every merge-join, anti, and aggregate
//! pipeline. Accepts either a stored table (base relations, materialized
//! intermediates) or an in-memory pipelined row stream — the latter feeds
//! run generation directly, so the only disk traffic is the sort's own
//! spill (see DESIGN.md §11).

use crate::error::{EngineError, Result};
use crate::exec::op::Slot;
use crate::exec::{Executor, Layout};
use crate::metrics::{OperatorMetrics, SortPhases};
use crate::plan::PlanCol;
use fuzzy_core::interval_order::OrderKey;
use fuzzy_core::{Degree, Value};
use fuzzy_rel::{Schema, StoredTable, Tuple};
use fuzzy_storage::{external_sort_parallel, external_sort_records, sort_keys, Prefix, SortStats};

/// The `⪯` sort key of `v` at the α-cut `alpha`: its normalized prefix,
/// which decides most comparisons with two integer compares, and the full
/// [`OrderKey`], which [`OrderKey::cmp_key`] compares on a prefix tie. Every
/// `⪯` sort of the executor — external or in memory — keys with it.
fn order_key(v: &Value, alpha: Degree) -> (Prefix, OrderKey) {
    let key = OrderKey::at(v, alpha);
    (key.prefix(), key)
}

/// The [`order_key`] of attribute `attr` of an encoded tuple, keyed straight
/// from its bytes ([`Tuple::order_key_at`]); a record whose attribute does
/// not decode fails with `StorageError::Corrupt`.
fn record_key(rec: &[u8], attr: usize, alpha: Degree) -> fuzzy_storage::Result<(Prefix, OrderKey)> {
    Tuple::order_key_at(rec, attr, alpha).map(|key| (key.prefix(), key))
}

/// Stable in-memory sort of `tuples` by `⪯` on `attr` at α-cut `alpha`: the
/// partitioned join's partition sort. It keys each tuple once and sorts with
/// the external sort's run-generation routine, adding its comparisons to
/// `comparisons`.
pub(crate) fn sort_tuples(
    tuples: Vec<Tuple>,
    attr: usize,
    alpha: Degree,
    comparisons: &mut u64,
) -> Vec<Tuple> {
    let keys: Vec<_> = tuples.iter().map(|t| order_key(&t.values[attr], alpha)).collect();
    let mut slots: Vec<Option<Tuple>> = tuples.into_iter().map(Some).collect();
    sort_keys(&keys, |k| k.0, |a, b| a.1.cmp_key(&b.1), comparisons)
        .filter_map(|i| slots[i].take())
        .collect()
}

/// Charges an external sort of `n` tuples to `m` and returns its phase
/// times.
fn charge(m: &mut OperatorMetrics, n: u64, stats: &SortStats) -> SortPhases {
    m.tuples_in = n;
    m.tuples_out = n;
    m.sort_runs = stats.initial_runs as u64;
    m.sort_comparisons = stats.comparisons;
    SortPhases { generation: stats.gen_time, merge: stats.merge_time }
}

impl Executor {
    /// The sort operator: sorts its input — a stored table or a pipelined
    /// row buffer laid out as `layout` — by `col` at the α-cut `alpha`, and
    /// returns the sorted table with the sort's phase times.
    pub(crate) fn sort_input(
        &mut self,
        input: Slot,
        layout: &Layout,
        col: &PlanCol,
        alpha: Degree,
        m: &mut OperatorMetrics,
    ) -> Result<(StoredTable, SortPhases)> {
        let attr = layout.resolve(col)?;
        match input {
            Slot::Rows(rows) => self.sort_rows(rows, layout.to_schema(), attr, alpha, m),
            Slot::Table(t) => self.sort_table(&t, attr, alpha, m),
            _ => Err(EngineError::Verify(format!(
                "input of sort by {col} is neither a table nor rows"
            ))),
        }
    }

    /// Sorts a table by the interval order `⪯` of the α-cut intervals on
    /// attribute `attr` (α = 0 is the paper's support order), counting its
    /// runs and comparisons in `m`. The sort key is the attribute's
    /// [`order_key`] at `alpha` (the α-cut endpoints as a normalized prefix,
    /// then the full [`OrderKey`]), extracted once per record read, so no
    /// comparison recomputes an α-cut; a record whose attribute does not
    /// decode fails the sort with `StorageError::Corrupt`. Run generation
    /// parallelizes across `ExecConfig::threads` with bit-identical batch
    /// cuts and counters (see `external_sort_parallel`).
    pub(crate) fn sort_table(
        &mut self,
        table: &StoredTable,
        attr: usize,
        alpha: Degree,
        m: &mut OperatorMetrics,
    ) -> Result<(StoredTable, SortPhases)> {
        let (file, stats) = external_sort_parallel(
            &self.disk,
            table.file(),
            self.config.sort_pages,
            self.config.threads,
            |r| record_key(r, attr, alpha),
            OrderKey::cmp_key,
        )?;
        let phases = charge(m, table.num_tuples(), &stats);
        Ok((table.with_file(self.temp_name("sorted"), file), phases))
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
        m: &mut OperatorMetrics,
    ) -> Result<(StoredTable, SortPhases)> {
        let n = rows.len() as u64;
        let (file, stats) = external_sort_records(
            &self.disk,
            rows.into_iter().map(|t| t.encode(0)),
            self.config.sort_pages,
            |r| record_key(r, attr, alpha),
            OrderKey::cmp_key,
        )?;
        let phases = charge(m, n, &stats);
        let shell_name = self.temp_name("pipe");
        let shell = StoredTable::create(&self.disk, shell_name, schema);
        Ok((shell.with_file(self.temp_name("sorted"), file), phases))
    }
}
