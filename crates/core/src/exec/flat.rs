//! Flat-plan operators: the single-table select scan and the generic join
//! step (merge / partitioned / block nested-loop) with its output sink.
//!
//! A chain of join steps pipelines left-deep: every intermediate step whose
//! *consumer* is a merge-join sort boundary emits its concatenated tuples
//! into an in-memory [`JoinSink::Buffer`] ([`crate::exec::op::Slot::Rows`])
//! instead of materializing a temp table — the paper's Section 4 point that
//! the join result itself never needs to hit the disk extended from the last
//! step to *every* step whose successor re-sorts anyway. The final step
//! streams straight into the projected answer rows, folding a row equal to
//! the one before it into that row by fuzzy OR. Only a step feeding a
//! partitioned or nested-loop consumer (which re-scan their outer by page)
//! still materializes.

use crate::error::Result;
use crate::exec::lower::{Access, JoinStep, SinkMode, StepMethod};
use crate::exec::merge_join::{merge_window, walk_window};
use crate::exec::op::Slot;
use crate::exec::{BoundCompare, Executor, Layout, PairOutcome};
use crate::metrics::OperatorMetrics;
use crate::plan::{PlanCol, PlanCompare, PlanTable};
use fuzzy_core::{CmpOp, Degree, Value};
use fuzzy_rel::{StoredTable, Tuple};

/// Where one join step delivers its output: an intermediate temp table, an
/// in-memory pipelined row buffer, or — on the final step — the projected
/// answer rows (the paper's pipelined insertion into the answer).
pub(crate) enum JoinSink {
    /// Spill the concatenated tuples to a temp table (consumer re-scans by
    /// page: partitioned or nested-loop next step).
    Materialize {
        /// The temp table being written.
        out: StoredTable,
        /// Its bulk writer.
        w: fuzzy_storage::file::BulkWriter,
    },
    /// Keep the concatenated tuples in memory for the next sort boundary.
    Buffer(Vec<Tuple>),
    /// Project straight into the answer rows (final step). A row equal to
    /// the last one is folded into it by fuzzy OR instead of pushed: max is
    /// associative, commutative and idempotent, so the answer and its
    /// first-occurrence order are those of the unfolded rows.
    Stream {
        /// Projection indices on the concatenated layout.
        select_idx: Vec<usize>,
        /// The answer rows.
        rows: Vec<(Vec<Value>, Degree)>,
    },
}

impl JoinSink {
    pub(crate) fn emit(&mut self, r: &Tuple, s: &Tuple, d: Degree) -> Result<()> {
        match self {
            JoinSink::Materialize { w, .. } => {
                let mut values = r.values.clone();
                values.extend_from_slice(&s.values);
                w.append(&Tuple::new(values, d).encode(0))?;
                Ok(())
            }
            JoinSink::Buffer(rows) => {
                let mut values = r.values.clone();
                values.extend_from_slice(&s.values);
                rows.push(Tuple::new(values, d));
                Ok(())
            }
            JoinSink::Stream { select_idx, rows } => {
                let left_len = r.values.len();
                let value =
                    |i: usize| if i < left_len { &r.values[i] } else { &s.values[i - left_len] };
                if let Some((last, degree)) = rows.last_mut() {
                    if select_idx.iter().zip(last.iter()).all(|(&i, v)| value(i) == v) {
                        *degree = degree.or(d);
                        return Ok(());
                    }
                }
                rows.push((select_idx.iter().map(|&i| value(i).clone()).collect(), d));
                Ok(())
            }
        }
    }

    /// Publishes the step's output: the finished temp table, the pipelined
    /// rows, or the answer rows.
    fn into_slot(self) -> Result<Slot> {
        match self {
            JoinSink::Materialize { out, w } => {
                w.finish()?;
                Ok(Slot::Table(out))
            }
            JoinSink::Buffer(rows) => Ok(Slot::Rows(rows)),
            JoinSink::Stream { rows, .. } => Ok(Slot::Answer(rows)),
        }
    }
}

impl Executor {
    /// The single-table flat operator: streams the filtered scan through
    /// the remaining predicates straight into the projected answer rows.
    pub(crate) fn select(
        &mut self,
        input: &StoredTable,
        table: &PlanTable,
        preds: &[PlanCompare],
        select: &[PlanCol],
        m: &mut OperatorMetrics,
    ) -> Result<Vec<(Vec<Value>, Degree)>> {
        let layout = Layout::of_table(table);
        let bound = layout.bind_all(preds)?;
        let (_, select_idx) = layout.projection(select)?;
        let mut rows: Vec<(Vec<Value>, Degree)> = Vec::new();
        for t in input.scan() {
            let t = t?;
            m.tuples_in += 1;
            let mut d = t.degree;
            for b in &bound {
                m.fuzzy_comparisons += 1;
                d = d.and(b.eval(&t.values));
            }
            if d.is_positive() {
                m.tuples_out += 1;
                rows.push((crate::exec::project(&t, &select_idx), d));
            }
        }
        Ok(rows)
    }

    /// One flat join step: evaluates its driver + residual predicates over
    /// the candidate pairs its physical method produces, emitting into the
    /// sink the lowering pass chose.
    pub(crate) fn join_step(
        &mut self,
        left: &StoredTable,
        right: &StoredTable,
        step: &JoinStep,
        m: &mut OperatorMetrics,
    ) -> Result<Slot> {
        let alpha = step.alpha;
        let mut sink = match &step.sink {
            SinkMode::Answer { select } => JoinSink::Stream {
                select_idx: step.next_layout.projection(select)?.1,
                rows: Vec::new(),
            },
            SinkMode::Rows => JoinSink::Buffer(Vec::new()),
            SinkMode::Materialize => {
                let name = self.temp_name("join");
                let out = StoredTable::create(&self.disk, name, step.next_layout.to_schema());
                let w = out.file().bulk_writer();
                JoinSink::Materialize { out, w }
            }
        };
        let residuals: Vec<BoundCompare> =
            step.residuals().map(|p| step.next_layout.bind(p)).collect::<Result<_>>()?;
        // The exact-equality driver's outer and inner columns; the block
        // nested loop has none.
        let driver = match step.driver() {
            Some(d) => Some((step.layout.resolve(&d.bound)?, d.joined.attr)),
            None => None,
        };
        // The outcome a candidate pair contributes, the same for every
        // method. Pure (no captured mutable state), so the parallel join
        // may evaluate it from worker threads; every path counts its
        // comparisons and prunes identically. Pairs whose degree already
        // falls below a pushed-down `WITH D > z` threshold are pruned here
        // — fuzzy AND cannot recover them, and dropping them now keeps them
        // out of pipelined intermediates and the external sorts of later
        // join steps.
        let pair_eval = |r: &Tuple, s: &Tuple| -> PairOutcome {
            let mut comparisons = 0u32;
            let mut d = r.degree.and(s.degree);
            if let Some((cur_idx, next_idx)) = driver {
                comparisons += 1;
                d = d.and(r.values[cur_idx].compare(CmpOp::Eq, &s.values[next_idx]));
            }
            if !d.is_positive() {
                return PairOutcome { degree: None, comparisons, pruned: false };
            }
            for b in &residuals {
                comparisons += 1;
                d = d.and(b.eval_pair(&r.values, &s.values));
                if !d.is_positive() {
                    return PairOutcome { degree: None, comparisons, pruned: false };
                }
            }
            if !d.meets(alpha, false) {
                return PairOutcome { degree: None, comparisons, pruned: true };
            }
            PairOutcome { degree: Some(d), comparisons, pruned: false }
        };
        // The merge walk may stop an outer tuple's window early (see
        // `walk_window`) when the answer projects only outer columns. The
        // partitioned join and the block nested loop do not see one outer's
        // pairs together, so they evaluate every pair.
        let capped = match &step.sink {
            SinkMode::Answer { select } => select.iter().all(|c| step.layout.contains(&c.binding)),
            SinkMode::Rows | SinkMode::Materialize => false,
        };
        let handle =
            |sink: &mut JoinSink, r: &Tuple, s: &Tuple, m: &mut OperatorMetrics| -> Result<()> {
                walk_window(r, std::slice::from_ref(s), &pair_eval, false, m, |_, d| {
                    sink.emit(r, s, d)
                })
            };
        // The parallel pair walk runs only on an uncapped step whose outer
        // exceeds the buffer. It measured slower than the serial walk on a
        // capped step, where the serial walk stops each window at the degree
        // cap, and on a small outer, where it starts threads for microseconds
        // of work (DESIGN.md §7).
        let parallel = self.config.threads > 1
            && !capped
            && left.num_pages() > self.config.buffer_pages as u64;
        match (&step.method, driver) {
            (StepMethod::Merge(_), Some((cur_idx, next_idx))) if parallel => {
                self.merge_join_parallel(
                    left, cur_idx, right, next_idx, alpha, &pair_eval, capped, &mut sink, m,
                )?;
            }
            (StepMethod::Merge(_), Some((cur_idx, next_idx))) => {
                merge_window(left, cur_idx, right, next_idx, alpha, m, |r, rng, m| {
                    walk_window(r, rng, &pair_eval, capped, m, |j, d| sink.emit(r, &rng[j], d))
                })?;
            }
            (StepMethod::Partitioned(_), Some((cur_idx, next_idx))) => {
                self.partitioned_join(left, cur_idx, right, next_idx, alpha, m, |r, s, m| {
                    handle(&mut sink, r, s, m)
                })?;
            }
            _ => {
                // No equality driver: the block nested loop, every pair.
                let mut each =
                    |r: &Tuple, s: &Tuple, m: &mut OperatorMetrics| handle(&mut sink, r, s, m);
                self.fold_outer(&Access::NestedLoop, left, right, m, &mut each)?;
            }
        }
        sink.into_slot()
    }
}
