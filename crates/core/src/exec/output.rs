//! Project/emit: the plan root. Collects the projected answer rows of the
//! upstream pipeline, deduplicates by fuzzy OR (max) — the projection
//! semantics every plan root must deliver (`V-DUP-MAX`) — and applies the
//! final `WITH D > z` threshold exactly.

use crate::exec::{threshold, Executor};
use crate::metrics::OpKind;
use crate::plan::PlanCol;
use crate::verify::{PhysOp, Prop};
use fuzzy_core::{Degree, Value};
use fuzzy_rel::{Relation, Schema, Tuple};
use fuzzy_sql::Threshold;

/// The output operator's declaration: requires every projected binding from
/// the stream, delivers fuzzy-OR duplicate elimination.
pub(crate) fn declared_properties(input: usize, select: &[PlanCol]) -> PhysOp {
    let mut requires: Vec<(usize, Prop)> = Vec::new();
    for c in select {
        let prop = Prop::Binding(c.binding.clone());
        if !requires.iter().any(|(_, q)| *q == prop) {
            requires.push((0, prop));
        }
    }
    PhysOp::declare("output", vec![input], requires, vec![Prop::DupMax])
}

/// Projects a tuple's values through resolved indices.
pub(crate) fn project(t: &Tuple, idx: &[usize]) -> Vec<Value> {
    idx.iter().map(|&i| t.values[i].clone()).collect()
}

/// Dedups rows by fuzzy OR and applies the final threshold.
pub(crate) fn finish(
    schema: Schema,
    rows: Vec<(Vec<Value>, Degree)>,
    threshold: Option<Threshold>,
) -> Relation {
    threshold::apply_threshold(Relation::from_dedup_rows(schema, rows), threshold)
}

impl Executor {
    /// Final answer assembly as a registered operator: fuzzy-OR dedup plus
    /// the `WITH` threshold. `tuples_in` is the number of rows the upstream
    /// operator delivered, after a join's answer sink folded consecutive
    /// equal rows; `tuples_out` the deduplicated, thresholded answer
    /// cardinality.
    pub(crate) fn finish_op(
        &mut self,
        schema: Schema,
        rows: Vec<(Vec<Value>, Degree)>,
        threshold: Option<Threshold>,
        label: String,
    ) -> Relation {
        let g = self.begin_op(OpKind::Output, label);
        let emitted = rows.len() as u64;
        let rel = finish(schema, rows, threshold);
        let m = self.metrics.op_mut(g.id);
        m.tuples_in = emitted;
        m.tuples_out = rel.len() as u64;
        self.end_op(g);
        rel
    }
}
