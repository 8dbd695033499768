//! The physical-operator contract: `open`, in outline order.
//!
//! Every physical operator of a lowered plan implements [`PhysicalOp`]. The
//! tree executes *operator-at-a-time*: `drive` opens the operators in
//! topological (outline) order, and each `open` performs the operator's
//! whole effectful work — scanning, sorting, joining — publishing its output
//! into the operator's [`TreeState`] slot, where its consumers (whose indices
//! come from the lowered [`crate::verify::Outline`]) pick it up. The root's
//! slot holds the answer relation once the last `open` returns.
//!
//! Why sequence the `open`s rather than interleave pulls (a volcano loop)?
//! Per-operator metric attribution: an operator's I/O and wall-time deltas
//! are charged between its `Executor::begin_op` and `end_op` (see
//! [`crate::metrics`] for the determinism contract), and interleaved pulls
//! would charge one operator's page transfers to another. Running each
//! operator to completion keeps every counter exact. Intermediate results
//! still skip the disk where it matters — a pipelined join step publishes
//! [`Slot::Rows`] that the next sort boundary consumes without any temp-table
//! round trip (see DESIGN.md §11).

use crate::error::{EngineError, Result};
use crate::exec::Executor;
use crate::verify::PhysOp;
use fuzzy_core::{Degree, Value};
use fuzzy_rel::{Relation, StoredTable, Tuple};

/// What an operator has published into its [`TreeState`] slot.
pub enum Slot {
    /// Nothing yet (before `open`) or already consumed.
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

/// Slot storage for one operator tree, indexed by operator position in the
/// lowered outline (operator `i` publishes into slot `i`).
pub struct TreeState {
    slots: Vec<Slot>,
}

impl TreeState {
    /// Empty state for a tree of `n` operators.
    pub fn new(n: usize) -> TreeState {
        TreeState { slots: (0..n).map(|_| Slot::Empty).collect() }
    }

    /// Publishes an operator's output.
    pub fn set(&mut self, i: usize, slot: Slot) {
        self.slots[i] = slot;
    }

    /// Takes a slot wholesale, leaving it empty.
    pub(crate) fn take(&mut self, i: usize) -> Slot {
        std::mem::replace(&mut self.slots[i], Slot::Empty)
    }

    /// Takes a slot that must hold a stored table.
    pub(crate) fn take_table(&mut self, i: usize) -> Result<StoredTable> {
        match self.take(i) {
            Slot::Table(t) => Ok(t),
            _ => Err(EngineError::Verify(format!(
                "operator input #{i} did not publish a stored table"
            ))),
        }
    }

    /// Takes a slot that must hold projected answer rows.
    pub(crate) fn take_answer(&mut self, i: usize) -> Result<Vec<(Vec<Value>, Degree)>> {
        match self.take(i) {
            Slot::Answer(rows) => Ok(rows),
            _ => {
                Err(EngineError::Verify(format!("operator input #{i} did not publish answer rows")))
            }
        }
    }

    /// Takes a slot that must hold the finished answer relation.
    pub(crate) fn take_done(&mut self, i: usize) -> Result<Relation> {
        match self.take(i) {
            Slot::Done(rel) => Ok(rel),
            _ => Err(EngineError::Verify(format!(
                "root operator #{i} did not publish an answer relation"
            ))),
        }
    }
}

/// One physical operator of a lowered plan.
///
/// The contract: `open` does the operator's effectful work and publishes its
/// output into slot [`PhysicalOp::out_slot`]. An operator must be able to
/// report [`PhysicalOp::declared_properties`] — the verifier rejects trees
/// containing undeclared operators (`V-OP-DECL`), and the declaration it
/// checks is the very one the running operator carries.
pub trait PhysicalOp {
    /// The operator's property declaration (⪯-sort order, degree bound,
    /// binding provenance, dup-elimination), as verified by
    /// [`crate::verify::Outline::check`].
    fn declared_properties(&self) -> &PhysOp;

    /// The slot this operator publishes into (its outline index).
    fn out_slot(&self) -> usize;

    /// Performs the operator's work, reading input slots and publishing the
    /// output slot. Inputs are guaranteed open: `drive` opens in
    /// topological order.
    fn open(&mut self, ex: &mut Executor, state: &mut TreeState) -> Result<()>;
}

/// Drives an operator tree to completion: opens every operator in
/// topological (outline) order and takes the root's answer relation.
pub(crate) fn drive(
    ex: &mut Executor,
    ops: &mut [Box<dyn PhysicalOp>],
    state: &mut TreeState,
) -> Result<Relation> {
    for op in ops.iter_mut() {
        op.open(ex, state)?;
    }
    match ops.last() {
        Some(root) => state.take_done(root.out_slot()),
        None => Err(EngineError::Unsupported("empty FROM".into())),
    }
}
