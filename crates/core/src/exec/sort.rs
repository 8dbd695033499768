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

/// One sort node's work, taken out of the tree so that two sorts can run at
/// once: its input, the input's layout, the sort column and α-cut, and the
/// name of the table it produces (drawn in outline order, so names do not
/// depend on which sorts overlap).
pub(crate) struct SortJob<'a> {
    pub(crate) input: Slot,
    pub(crate) layout: &'a Layout,
    pub(crate) col: &'a PlanCol,
    pub(crate) alpha: Degree,
    pub(crate) name: String,
}

impl Slot {
    /// Whether this slot's content exceeds a sort budget of `pages` pages
    /// of `page_size` bytes. Pipelined rows exceed it when their records'
    /// bytes do, and then cut more than one run. A stored table exceeds it
    /// when it has more pages than the budget: its records then take about
    /// the budget's bytes or more (pages also hold slot overhead), so it cuts
    /// two or more runs unless it is within a few pages of the budget.
    /// Anything else (an empty slot) does not.
    pub(crate) fn exceeds_sort_budget(&self, pages: usize, page_size: usize) -> bool {
        match self {
            Slot::Table(t) => t.num_pages() > pages as u64,
            Slot::Rows(rows) => {
                rows.iter().map(Tuple::encoded_len).sum::<usize>() > pages * page_size
            }
            _ => false,
        }
    }
}

impl Executor {
    /// The sort operator: sorts its job's input — a stored table or a
    /// pipelined row buffer — by the job's column at its α-cut, generating
    /// runs up to `threads` wide, and returns the sorted table with the
    /// sort's phase times. It takes `&self`, so the driver may run two at
    /// once.
    pub(crate) fn sort_input(
        &self,
        job: SortJob<'_>,
        threads: usize,
        m: &mut OperatorMetrics,
    ) -> Result<(StoredTable, SortPhases)> {
        let attr = job.layout.resolve(job.col)?;
        match job.input {
            Slot::Rows(rows) => {
                self.sort_rows(rows, job.layout.to_schema(), attr, job.alpha, job.name, m)
            }
            Slot::Table(t) => self.sort_table(&t, attr, job.alpha, threads, job.name, m),
            _ => Err(EngineError::Verify(format!(
                "input of sort by {} is neither a table nor rows",
                job.col
            ))),
        }
    }

    /// Sorts a table by the interval order `⪯` of the α-cut intervals on
    /// attribute `attr` (α = 0 is the paper's support order) into a table
    /// named `name`, counting its runs and comparisons in `m`. The sort key
    /// is the attribute's [`order_key`] at `alpha` (the α-cut endpoints as a
    /// normalized prefix, then the full [`OrderKey`]), extracted once per
    /// record read, so no comparison recomputes an α-cut; a record whose
    /// attribute does not decode fails the sort with
    /// `StorageError::Corrupt`. Run generation parallelizes across `threads`
    /// with bit-identical batch cuts and counters when the table spills
    /// (see `external_sort_parallel`).
    pub(crate) fn sort_table(
        &self,
        table: &StoredTable,
        attr: usize,
        alpha: Degree,
        threads: usize,
        name: String,
        m: &mut OperatorMetrics,
    ) -> Result<(StoredTable, SortPhases)> {
        let (file, stats) = external_sort_parallel(
            &self.disk,
            table.file(),
            self.config.sort_pages,
            threads,
            |r| record_key(r, attr, alpha),
            OrderKey::cmp_key,
        )?;
        let phases = charge(m, table.num_tuples(), &stats);
        Ok((table.with_file(name, file), phases))
    }

    /// Sorts an in-memory pipelined row buffer — the output of an upstream
    /// join step that was never materialized — into a table named `name`.
    /// The rows feed run generation directly (`external_sort_records`), so
    /// batch cuts, run contents, and comparison counts are exactly what
    /// [`Executor::sort_table`] would have produced had the rows been
    /// written to a temp table and re-scanned, minus that write and re-scan.
    /// Run generation is serial whatever the thread budget: the record
    /// stream arrives in the (deterministic) serial emission order, and the
    /// counters stay bit-identical across thread counts because the serial
    /// path is the only path.
    pub(crate) fn sort_rows(
        &self,
        rows: Vec<Tuple>,
        schema: Schema,
        attr: usize,
        alpha: Degree,
        name: String,
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
        Ok((StoredTable::from_parts(name, schema, file, 0), phases))
    }
}
