//! Flat-plan operators: the single-table select scan and the generic join
//! step (merge / partitioned / block nested-loop) with its output sink.
//!
//! A chain of join steps pipelines left-deep: every intermediate step whose
//! *consumer* is a merge-join sort boundary emits its concatenated tuples
//! into an in-memory [`JoinSink::Buffer`] ([`crate::exec::op::Slot::Rows`])
//! instead of materializing a temp table — the paper's Section 4 point that
//! the join result itself never needs to hit the disk extended from the last
//! step to *every* step whose successor re-sorts anyway. The final step
//! streams straight into the projected answer rows. Only a step feeding a
//! partitioned or nested-loop consumer (which re-scan their outer by page)
//! still materializes.

use crate::error::Result;
use crate::exec::lower::{JoinStep, SinkMode, StepMethod};
use crate::exec::op::{PhysicalOp, Slot, TreeState};
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
pub(crate) enum JoinSink<'a> {
    /// Spill the concatenated tuples to a temp table (consumer re-scans by
    /// page: partitioned or nested-loop next step).
    Materialize {
        /// The temp table being written.
        out: StoredTable,
        /// Its bulk writer.
        w: fuzzy_storage::file::BulkWriter,
    },
    /// Keep the concatenated tuples in memory for the next sort boundary.
    Buffer {
        /// The pipelined row buffer.
        rows: &'a mut Vec<Tuple>,
    },
    /// Project straight into the answer rows (final step).
    Stream {
        /// Projection indices on the concatenated layout.
        select_idx: &'a [usize],
        /// The answer rows.
        rows: &'a mut Vec<(Vec<Value>, Degree)>,
    },
}

impl JoinSink<'_> {
    pub(crate) fn emit(&mut self, r: &Tuple, s: &Tuple, d: Degree) -> Result<()> {
        match self {
            JoinSink::Materialize { w, .. } => {
                let mut values = r.values.clone();
                values.extend_from_slice(&s.values);
                w.append(&Tuple::new(values, d).encode(0))?;
                Ok(())
            }
            JoinSink::Buffer { rows } => {
                let mut values = r.values.clone();
                values.extend_from_slice(&s.values);
                rows.push(Tuple::new(values, d));
                Ok(())
            }
            JoinSink::Stream { select_idx, rows } => {
                let left_len = r.values.len();
                let values = select_idx
                    .iter()
                    .map(|&i| {
                        if i < left_len {
                            r.values[i].clone()
                        } else {
                            s.values[i - left_len].clone()
                        }
                    })
                    .collect();
                rows.push((values, d));
                Ok(())
            }
        }
    }

    fn into_table(self) -> Result<Option<StoredTable>> {
        match self {
            JoinSink::Materialize { out, w } => {
                w.finish()?;
                Ok(Some(out))
            }
            JoinSink::Buffer { .. } | JoinSink::Stream { .. } => Ok(None),
        }
    }
}

/// The single-table flat operator: streams the filtered scan through the
/// remaining predicates straight into the projected answer rows.
pub(crate) struct SelectOp {
    slot: usize,
    decl: PhysOp,
    input: usize,
    table: PlanTable,
    preds: Vec<PlanCompare>,
    select: Vec<PlanCol>,
}

impl SelectOp {
    pub(crate) fn new(
        slot: usize,
        decl: PhysOp,
        input: usize,
        table: PlanTable,
        preds: Vec<PlanCompare>,
        select: Vec<PlanCol>,
    ) -> Self {
        SelectOp { slot, decl, input, table, preds, select }
    }
}

impl PhysicalOp for SelectOp {
    fn declared_properties(&self) -> &PhysOp {
        &self.decl
    }

    fn out_slot(&self) -> usize {
        self.slot
    }

    fn open(&mut self, ex: &mut Executor, state: &mut TreeState) -> Result<()> {
        let layout = Layout::of_table(&self.table);
        let bound = layout.bind_all(&self.preds)?;
        let (_, select_idx) = layout.projection(&self.select)?;
        let current = state.take_table(self.input)?;
        let mut rows: Vec<(Vec<Value>, Degree)> = Vec::new();
        let g = ex.begin_op(OpKind::Scan, self.decl.name.clone());
        let pool = ex.pool(2);
        let mut m = OperatorMetrics::default();
        for t in current.scan(&pool) {
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
        m.add_pool(&pool.stats());
        ex.absorb_op(&g, &m);
        ex.end_op(g);
        state.set(self.slot, Slot::Answer(rows));
        Ok(())
    }
}

/// One flat join step: evaluates its driver + residual predicates over the
/// candidate pairs its physical method produces, emitting into the sink the
/// lowering pass chose.
pub(crate) struct JoinStepOp {
    slot: usize,
    decl: PhysOp,
    left: usize,
    right: usize,
    step: JoinStep,
}

impl JoinStepOp {
    pub(crate) fn new(
        slot: usize,
        decl: PhysOp,
        left: usize,
        right: usize,
        step: JoinStep,
    ) -> Self {
        JoinStepOp { slot, decl, left, right, step }
    }
}

impl PhysicalOp for JoinStepOp {
    fn declared_properties(&self) -> &PhysOp {
        &self.decl
    }

    fn out_slot(&self) -> usize {
        self.slot
    }

    fn open(&mut self, ex: &mut Executor, state: &mut TreeState) -> Result<()> {
        let step = &self.step;
        let alpha = step.alpha;
        let mut rows: Vec<(Vec<Value>, Degree)> = Vec::new();
        let mut buffered: Vec<Tuple> = Vec::new();
        let select_idx: Vec<usize> = match &step.sink {
            SinkMode::Answer { select } => step.next_layout.projection(select)?.1,
            SinkMode::Rows | SinkMode::Materialize => Vec::new(),
        };
        let left = state.take_table(self.left)?;
        let right = state.take_table(self.right)?;
        let mut sink = match &step.sink {
            SinkMode::Answer { .. } => {
                JoinSink::Stream { select_idx: &select_idx, rows: &mut rows }
            }
            SinkMode::Rows => JoinSink::Buffer { rows: &mut buffered },
            SinkMode::Materialize => {
                let name = ex.temp_name("join");
                let out = StoredTable::create(&ex.disk, name, step.next_layout.to_schema());
                let w = out.file().bulk_writer();
                JoinSink::Materialize { out, w }
            }
        };
        let residuals: Vec<BoundCompare> = step.next_layout.bind_all(&step.residuals)?;
        match &step.method {
            StepMethod::Merge { cur_col, next_col }
            | StepMethod::Partitioned { cur_col, next_col } => {
                let cur_idx = step.layout.resolve(cur_col)?;
                let next_idx = next_col.attr;
                // The outcome a joined pair contributes. Pure (no captured
                // mutable state), so the parallel join may evaluate it
                // from worker threads; both paths count its comparisons
                // and prunes identically. Pairs whose degree already falls
                // below a pushed-down `WITH D > z` threshold are pruned
                // here — fuzzy AND cannot recover them, and dropping them
                // now keeps them out of pipelined intermediates and the
                // external sorts of later join steps.
                let pair_eval = |r: &Tuple, s: &Tuple| -> PairOutcome {
                    let mut comparisons = 1u32;
                    let d_join = r.values[cur_idx].compare(CmpOp::Eq, &s.values[next_idx]);
                    let mut d = r.degree.and(s.degree).and(d_join);
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
                let handle = |sink: &mut JoinSink<'_>,
                              r: &Tuple,
                              s: &Tuple,
                              m: &mut OperatorMetrics|
                 -> Result<()> {
                    let o = pair_eval(r, s);
                    m.fuzzy_comparisons += u64::from(o.comparisons);
                    m.pairs_pruned += u64::from(o.pruned);
                    match o.degree {
                        Some(d) => {
                            m.tuples_out += 1;
                            sink.emit(r, s, d)
                        }
                        None => Ok(()),
                    }
                };
                match &step.method {
                    StepMethod::Merge { .. } if ex.config.threads > 1 => {
                        ex.merge_join_parallel(
                            &left,
                            cur_idx,
                            &right,
                            next_idx,
                            alpha,
                            OpKind::Join,
                            self.decl.name.clone(),
                            &pair_eval,
                            &mut sink,
                        )?;
                    }
                    StepMethod::Merge { .. } => {
                        ex.merge_window(
                            &left,
                            cur_idx,
                            &right,
                            next_idx,
                            alpha,
                            OpKind::Join,
                            self.decl.name.clone(),
                            |r, rng, m| {
                                for s in rng {
                                    handle(&mut sink, r, s, m)?;
                                }
                                Ok(())
                            },
                        )?;
                    }
                    _ => {
                        ex.partitioned_join(
                            &left,
                            cur_idx,
                            &right,
                            next_idx,
                            alpha,
                            self.decl.name.clone(),
                            |r, s, m| handle(&mut sink, r, s, m),
                        )?;
                    }
                }
            }
            StepMethod::NestedLoop => {
                // No equality driver: block-nested-loop fallback.
                ex.block_nested_loop(
                    &left,
                    &right,
                    OpKind::Join,
                    self.decl.name.clone(),
                    |_, _| (),
                    |_, r, s, m| {
                        let mut d = r.degree.and(s.degree);
                        if !d.is_positive() {
                            return Ok(());
                        }
                        for b in &residuals {
                            m.fuzzy_comparisons += 1;
                            d = d.and(b.eval_pair(&r.values, &s.values));
                            if !d.is_positive() {
                                return Ok(());
                            }
                        }
                        if d.meets(alpha, false) {
                            m.tuples_out += 1;
                            sink.emit(r, s, d)?;
                        } else {
                            m.pairs_pruned += 1;
                        }
                        Ok(())
                    },
                    |_, _, _| Ok(()),
                )?;
            }
        }
        match sink.into_table()? {
            Some(out) => state.set(self.slot, Slot::Table(out)),
            None => match &step.sink {
                SinkMode::Rows => state.set(self.slot, Slot::Rows(buffered)),
                SinkMode::Answer { .. } | SinkMode::Materialize => {
                    state.set(self.slot, Slot::Answer(rows))
                }
            },
        }
        Ok(())
    }
}
