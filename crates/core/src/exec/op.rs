//! Driving a verified operator tree: one match over its nodes, in outline
//! order.
//!
//! The tree executes *operator-at-a-time*: `drive` borrows the cached
//! [`Lowered`] tree and, for each node `nodes[i]` in topological (outline)
//! order, runs the operator's whole effectful work — scanning, sorting,
//! joining — on the inputs named by `outline.ops[i].inputs`, the edges the
//! verifier checked, and publishes its output into slot `i`. The operator
//! registers in the metrics registry under `outline.ops[i].name`. The root's
//! slot holds the answer relation once the last node has run. Nothing of the
//! tree is copied or changed, so a cache hit drives exactly the tree of the
//! miss that built it.
//!
//! Why sequence whole operators rather than interleave pulls (a volcano
//! loop)? Per-operator metric attribution: an operator's I/O and wall-time
//! deltas are charged between its `Executor::begin_op` and `end_op` (see
//! [`crate::metrics`] for the determinism contract), and interleaved pulls
//! would charge one operator's page transfers to another. Running each
//! operator to completion keeps every counter exact. Intermediate results
//! still skip the disk where it matters — a pipelined join step publishes
//! [`Slot::Rows`] that the next sort boundary consumes without any temp-table
//! round trip (see DESIGN.md §11).

use crate::error::{EngineError, Result};
use crate::exec::lower::{Lowered, Node};
use crate::exec::Executor;
use crate::verify::PhysOp;
use fuzzy_core::{Degree, Value};
use fuzzy_rel::{Relation, StoredTable, Tuple};

/// What an operator has published into its slot.
pub(crate) enum Slot {
    /// Nothing yet (before the operator runs) or already consumed.
    Empty,
    /// A stored relation on the simulated disk (base table, filter output,
    /// sort output, or a materialized join intermediate).
    Table(StoredTable),
    /// An in-memory pipelined intermediate: concatenated join-output tuples
    /// that never touched the disk. The consuming sort boundary spills them
    /// through its own run generation.
    Rows(Vec<Tuple>),
    /// Projected answer rows awaiting final dedup + threshold.
    Answer(Vec<(Vec<Value>, Degree)>),
    /// The finished answer relation (the plan root's output).
    Done(Relation),
}

/// Slot storage for one run of a tree: operator `i` publishes into slot `i`.
struct TreeState {
    slots: Vec<Slot>,
}

impl TreeState {
    /// Takes the slot of `op`'s input `k`, leaving it empty.
    fn input(&mut self, op: &PhysOp, k: usize) -> Result<Slot> {
        match op.inputs.get(k) {
            Some(&i) => Ok(std::mem::replace(&mut self.slots[i], Slot::Empty)),
            None => Err(EngineError::Verify(format!("{} has no input #{k}", op.name))),
        }
    }

    /// Takes `op`'s input `k`, which must hold a stored table.
    fn table(&mut self, op: &PhysOp, k: usize) -> Result<StoredTable> {
        match self.input(op, k)? {
            Slot::Table(t) => Ok(t),
            _ => Err(EngineError::Verify(format!(
                "input #{k} of {} did not publish a stored table",
                op.name
            ))),
        }
    }

    /// Takes `op`'s input `k`, which must hold projected answer rows.
    fn answer(&mut self, op: &PhysOp, k: usize) -> Result<Vec<(Vec<Value>, Degree)>> {
        match self.input(op, k)? {
            Slot::Answer(rows) => Ok(rows),
            _ => Err(EngineError::Verify(format!(
                "input #{k} of {} did not publish answer rows",
                op.name
            ))),
        }
    }
}

/// Drives a lowered tree to completion: runs every node in topological
/// (outline) order and takes the root's answer relation.
pub(crate) fn drive(ex: &mut Executor, lowered: &Lowered) -> Result<Relation> {
    let mut state = TreeState { slots: lowered.nodes.iter().map(|_| Slot::Empty).collect() };
    for (i, (node, op)) in lowered.nodes.iter().zip(&lowered.outline.ops).enumerate() {
        let label = op.name.clone();
        let out = match node {
            Node::Scan { table, min_degree } => {
                Slot::Table(ex.filter_scan(table, *min_degree, label)?)
            }
            Node::Select { table, preds, select } => {
                let input = state.table(op, 0)?;
                Slot::Answer(ex.select(&input, table, preds, select, label)?)
            }
            Node::Sort { layout, col, alpha } => {
                let input = state.input(op, 0)?;
                Slot::Table(ex.sort_input(input, layout, col, *alpha, label)?)
            }
            Node::Join { step } => {
                let (left, right) = (state.table(op, 0)?, state.table(op, 1)?);
                ex.join_step(&left, &right, step, label)?
            }
            Node::Anti { plan, mode } => {
                let (outer, inner) = (state.table(op, 0)?, state.table(op, 1)?);
                Slot::Answer(ex.anti(&outer, &inner, plan, *mode, label)?)
            }
            Node::Agg { plan, mode } => {
                let (outer, inner) = (state.table(op, 0)?, state.table(op, 1)?);
                Slot::Answer(ex.aggregate(&outer, &inner, plan, *mode, label)?)
            }
            Node::Output { layout, select, threshold } => {
                let (schema, _) = layout.projection(select)?;
                let rows = state.answer(op, 0)?;
                Slot::Done(ex.finish_op(schema, rows, *threshold, label))
            }
        };
        state.slots[i] = out;
    }
    match state.slots.pop() {
        Some(Slot::Done(rel)) => Ok(rel),
        Some(_) => Err(EngineError::Verify("the root operator did not publish an answer".into())),
        None => Err(EngineError::Unsupported("empty FROM".into())),
    }
}
