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
use crate::exec::lower::{JoinStep, SinkMode, StepMethod};
use crate::exec::merge_join::walk_window;
use crate::exec::op::Slot;
use crate::exec::{BoundCompare, Executor, Layout, PairOutcome};
use crate::metrics::{OpKind, OperatorMetrics};
use crate::plan::{PlanCol, PlanCompare, PlanTable};
use crate::verify::{PhysOp, Prop};
use fuzzy_core::{CmpOp, Degree, Value};
use fuzzy_rel::{StoredTable, Tuple};

/// Declaration of the single-table select scan: applies the remaining
/// predicates to the filtered stream and projects the answer rows.
pub(crate) fn declared_properties_select(binding: &str, alpha: Degree, input: usize) -> PhysOp {
    PhysOp::declare(
        format!("select {binding}"),
        vec![input],
        vec![(0, Prop::Binding(binding.to_string())), (0, Prop::MinDegree(alpha))],
        vec![Prop::Binding(binding.to_string()), Prop::MinDegree(alpha)],
    )
}

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
        label: String,
    ) -> Result<Vec<(Vec<Value>, Degree)>> {
        let layout = Layout::of_table(table);
        let bound = layout.bind_all(preds)?;
        let (_, select_idx) = layout.projection(select)?;
        let mut rows: Vec<(Vec<Value>, Degree)> = Vec::new();
        let g = self.begin_op(OpKind::Scan, label);
        let mut m = OperatorMetrics::default();
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
        self.absorb_op(&g, &m);
        self.end_op(g);
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
        label: String,
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
        let residuals: Vec<BoundCompare> = step.next_layout.bind_all(&step.residuals)?;
        // The exact-equality driver's outer and inner columns; the block
        // nested loop has none.
        let driver = match &step.method {
            StepMethod::Merge { cur_col, next_col }
            | StepMethod::Partitioned { cur_col, next_col } => {
                Some((step.layout.resolve(cur_col)?, next_col.attr))
            }
            StepMethod::NestedLoop => None,
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
        match (&step.method, driver) {
            (StepMethod::Merge { .. }, Some((cur_idx, next_idx))) if self.config.threads > 1 => {
                self.merge_join_parallel(
                    left,
                    cur_idx,
                    right,
                    next_idx,
                    alpha,
                    OpKind::Join,
                    label,
                    &pair_eval,
                    capped,
                    &mut sink,
                )?;
            }
            (StepMethod::Merge { .. }, Some((cur_idx, next_idx))) => {
                self.merge_window(
                    left,
                    cur_idx,
                    right,
                    next_idx,
                    alpha,
                    OpKind::Join,
                    label,
                    |r, rng, m| {
                        walk_window(r, rng, &pair_eval, capped, m, |j, d| sink.emit(r, &rng[j], d))
                    },
                )?;
            }
            (StepMethod::Partitioned { .. }, Some((cur_idx, next_idx))) => {
                self.partitioned_join(left, cur_idx, right, next_idx, alpha, label, |r, s, m| {
                    handle(&mut sink, r, s, m)
                })?;
            }
            _ => {
                // No equality driver: block-nested-loop fallback.
                self.block_nested_loop(
                    left,
                    right,
                    OpKind::Join,
                    label,
                    |_, _| (),
                    |_, r, s, m| handle(&mut sink, r, s, m),
                    |_, _, _| Ok(()),
                )?;
            }
        }
        sink.into_slot()
    }
}
