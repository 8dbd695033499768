//! Driving a verified operator tree: one match over its nodes, in outline
//! order, and the one place an operator is metered.
//!
//! The tree executes *operator-at-a-time*: `drive` borrows the cached
//! [`Lowered`] tree and, for each node `nodes[i]` in topological (outline)
//! order, runs the operator's whole effectful work — scanning, sorting,
//! joining — on the inputs named by `outline.ops[i].inputs`, the edges the
//! verifier checked, and publishes its output into slot `i`. The root's slot
//! holds the answer relation once the last node has run. Nothing of the tree
//! is copied or changed, so a cache hit drives exactly the tree of the miss
//! that built it.
//!
//! Metering is the driver's, not the operators', and happens in one place:
//! `metered` snapshots the thread's page I/O tally
//! (`fuzzy_storage::thread_io`) and the clock around a node's run and hands
//! the operator a fresh [`OperatorMetrics`] to fill; `publish` then
//! registers one registry node under `outline.ops[i].name`, with the
//! [`OpKind`] the node's variant implies, absorbs those counters, charges
//! the node's wall time and I/O delta (and, for a sort, the phase split the
//! sort returns), and publishes its slot. So a node is charged its whole
//! run, setup included — a join step's last temp-table page write among
//! them — and nothing another session did to the disk meanwhile.
//!
//! The one exception to one-node-at-a-time: the two sorts feeding a merge
//! operator are independent, and when both exceed the sort budget they run
//! at the same time, one on a helper thread (`sort_pair`). Each is metered
//! on its own thread by the same `metered`, and published in outline order.
//!
//! Why sequence whole operators rather than interleave pulls (a volcano
//! loop)? Per-operator metric attribution: an operator's I/O and wall-time
//! deltas are taken around its run (see [`crate::metrics`] for the
//! determinism contract), and interleaved pulls would charge one operator's
//! page transfers to another. Running each operator to completion keeps
//! every counter exact. Intermediate results still skip the disk where it
//! matters — a pipelined join step publishes [`Slot::Rows`] that the next
//! sort boundary consumes without any temp-table round trip (see DESIGN.md
//! §11).

use crate::error::{EngineError, Result};
use crate::exec::lower::{Lowered, Node};
use crate::exec::sort::SortJob;
use crate::exec::{output, Executor};
use crate::metrics::{OpKind, OperatorMetrics, QueryMetrics, SortPhases};
use crate::verify::PhysOp;
use fuzzy_core::{Degree, Value};
use fuzzy_rel::{Catalog, Relation, StoredTable, Tuple};
use fuzzy_storage::{credit_thread_io, panic_message, thread_io, IoSnapshot};
use std::time::{Duration, Instant};

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

impl Node {
    /// The registry kind of the node's operator; a select is a scan.
    fn kind(&self) -> OpKind {
        match self {
            Node::Scan { .. } | Node::Select { .. } => OpKind::Scan,
            Node::Sort { .. } => OpKind::Sort,
            Node::Join { .. } => OpKind::Join,
            Node::Anti { .. } => OpKind::Anti,
            Node::Agg { .. } => OpKind::Aggregate,
            Node::Output { .. } => OpKind::Output,
        }
    }
}

/// Drives a lowered tree to completion: runs and meters every node in
/// topological (outline) order and takes the root's answer relation, with
/// the run's metrics. The scans bind their tables through `catalog`, the
/// statement's snapshot. Where two sorts feed one consumer and may overlap
/// ([`overlaps`]), they run at the same time ([`sort_pair`]).
pub(crate) fn drive(
    ex: &mut Executor,
    lowered: &Lowered,
    catalog: &Catalog,
) -> Result<(Relation, QueryMetrics)> {
    let mut state = TreeState { slots: lowered.nodes.iter().map(|_| Slot::Empty).collect() };
    let mut metrics = QueryMetrics::default();
    let mut i = 0;
    while i < lowered.nodes.len() {
        if overlaps(ex, lowered, &state, i) {
            let [left, right] = [i, i + 1].map(|k| sort_job(ex, lowered, &mut state, k));
            sort_pair(ex, lowered, &mut state, &mut metrics, i, [left?, right?])?;
            i += 2;
            continue;
        }
        let run = metered(|m| run_node(ex, lowered, &mut state, catalog, i, m));
        publish(lowered, &mut state, &mut metrics, i, run)?;
        i += 1;
    }
    match state.slots.pop() {
        Some(Slot::Done(rel)) => Ok((rel, metrics)),
        Some(_) => Err(EngineError::Verify("the root operator did not publish an answer".into())),
        None => Err(EngineError::Unsupported("empty FROM".into())),
    }
}

/// Runs node `i` on its inputs' slots, counting into `m`, and returns what
/// it publishes, with its phase times if it is a sort.
fn run_node(
    ex: &mut Executor,
    lowered: &Lowered,
    state: &mut TreeState,
    catalog: &Catalog,
    i: usize,
    m: &mut OperatorMetrics,
) -> Result<(Slot, SortPhases)> {
    let op = &lowered.outline.ops[i];
    let slot = match &lowered.nodes[i] {
        Node::Scan { table, min_degree } => {
            Slot::Table(ex.filter_scan(table, catalog, *min_degree, m)?)
        }
        Node::Select { table, preds, select, .. } => {
            let input = state.table(op, 0)?;
            Slot::Answer(ex.select(&input, table, preds, select, m)?)
        }
        Node::Sort { .. } => {
            let job = sort_job(ex, lowered, state, i)?;
            return sort(ex, job, ex.config.threads, m);
        }
        Node::Join { step } => {
            let (left, right) = (state.table(op, 0)?, state.table(op, 1)?);
            ex.join_step(&left, &right, step, m)?
        }
        Node::Anti { plan, access } => {
            let (outer, inner) = (state.table(op, 0)?, state.table(op, 1)?);
            Slot::Answer(ex.anti(&outer, &inner, plan, access, m)?)
        }
        Node::Agg { plan, access } => {
            let (outer, inner) = (state.table(op, 0)?, state.table(op, 1)?);
            Slot::Answer(ex.aggregate(&outer, &inner, plan, access, m)?)
        }
        Node::Output { layout, select, threshold } => {
            let (schema, _) = layout.projection(select)?;
            let rows = state.answer(op, 0)?;
            Slot::Done(output::finish(schema, rows, *threshold, m))
        }
    };
    Ok((slot, SortPhases::default()))
}

/// The sort operator on one job, generating runs up to `threads` wide.
fn sort(
    ex: &Executor,
    job: SortJob<'_>,
    threads: usize,
    m: &mut OperatorMetrics,
) -> Result<(Slot, SortPhases)> {
    let (sorted, phases) = ex.sort_input(job, threads, m)?;
    Ok((Slot::Table(sorted), phases))
}

/// One node's run, metered on the thread that ran it: what it publishes
/// (or its error), its counters and phase times, its wall time and its page
/// I/O.
struct Run {
    out: Result<(Slot, SortPhases)>,
    m: OperatorMetrics,
    wall: Duration,
    io: IoSnapshot,
}

/// Runs `work` with a fresh [`OperatorMetrics`] and meters it on this
/// thread: the clock and the thread's page I/O tally around it.
fn metered(work: impl FnOnce(&mut OperatorMetrics) -> Result<(Slot, SortPhases)>) -> Run {
    let (io0, t0) = (thread_io(), Instant::now());
    let mut m = OperatorMetrics::default();
    let out = work(&mut m);
    Run { out, m, wall: t0.elapsed(), io: thread_io().since(&io0) }
}

/// Registers node `k` under its outline name and kind, charges it `run`'s
/// counters, phase times, wall time and I/O, and publishes its slot; or
/// returns its error.
fn publish(
    lowered: &Lowered,
    state: &mut TreeState,
    metrics: &mut QueryMetrics,
    k: usize,
    run: Run,
) -> Result<()> {
    let (slot, phases) = run.out?;
    let id = metrics.begin(lowered.nodes[k].kind(), lowered.outline.ops[k].name.clone());
    metrics.op_mut(id).absorb(&run.m);
    metrics.add_sort_phases(id, phases.generation, phases.merge);
    metrics.finish(id, run.wall, run.io);
    state.slots[k] = slot;
    Ok(())
}

/// Whether nodes `i` and `i + 1` are the two sorts feeding one consumer,
/// with both inputs published and both exceeding the sort budget (so each
/// spills, and nearly always cuts two or more runs), and the thread budget
/// has a core for each: then they overlap. Sorts within their budget are
/// short, and overlapping them would not repay a helper thread's start-up.
fn overlaps(ex: &Executor, lowered: &Lowered, state: &TreeState, i: usize) -> bool {
    let ops = &lowered.outline.ops;
    let large = |k: usize| {
        let page_size = ex.disk.page_size();
        ops[k].inputs.first().is_some_and(|&src| {
            state.slots[src].exceeds_sort_budget(ex.config.sort_pages, page_size)
        })
    };
    ex.config.threads >= 2
        && matches!(lowered.nodes.get(i..i + 2), Some([Node::Sort { .. }, Node::Sort { .. }]))
        && ops.get(i + 2).is_some_and(|consumer| consumer.inputs == [i, i + 1])
        // The joined side first: it is a base table, whose check counts
        // pages, while the bound side may be pipelined rows, whose check
        // sums their lengths.
        && large(i + 1)
        && large(i)
}

/// Takes sort node `k`'s input out of the tree state, with the name its
/// output table takes (drawn now, in outline order).
fn sort_job<'a>(
    ex: &mut Executor,
    lowered: &'a Lowered,
    state: &mut TreeState,
    k: usize,
) -> Result<SortJob<'a>> {
    let op = &lowered.outline.ops[k];
    let Node::Sort { layout, col, alpha, .. } = &lowered.nodes[k] else {
        return Err(EngineError::Verify(format!("{} is not a sort", op.name)));
    };
    let input = state.input(op, 0)?;
    Ok(SortJob { input, layout, col, alpha: *alpha, name: ex.temp_name("sorted") })
}

/// Runs the sorts of nodes `i` and `i + 1` at the same time: the first on a
/// scoped helper thread, the second on this one, each generating its runs
/// with half the thread budget. Each is metered on its own thread and
/// charged in outline order as a serial run would charge it; the helper's
/// page transfers are credited to this thread, so the statement's I/O still
/// adds up. Both sides are joined before any result is looked at; a panic
/// on the helper is [`EngineError::WorkerPanic`], and what the other side
/// wrote stays in the statement's scope, reclaimed when it closes.
fn sort_pair(
    ex: &Executor,
    lowered: &Lowered,
    state: &mut TreeState,
    metrics: &mut QueryMetrics,
    i: usize,
    jobs: [SortJob<'_>; 2],
) -> Result<()> {
    let threads = (ex.config.threads / 2).max(1);
    let [left, right] = jobs;
    let (helper, caller) = overlapped(
        || metered(|m| sort(ex, left, threads, m)),
        || metered(|m| sort(ex, right, threads, m)),
    );
    let helper = helper?;
    credit_thread_io(helper.io);
    publish(lowered, state, metrics, i, helper)?;
    publish(lowered, state, metrics, i + 1, caller)
}

/// Runs `helper` on a scoped thread and `caller` on this one, and returns
/// both outcomes once both have finished: the helper's as
/// [`EngineError::WorkerPanic`] if it panicked.
fn overlapped<A: Send, B>(
    helper: impl FnOnce() -> A + Send,
    caller: impl FnOnce() -> B,
) -> (Result<A>, B) {
    std::thread::scope(|scope| {
        let handle = scope.spawn(helper);
        let b = caller();
        let a = handle.join().map_err(|p| EngineError::WorkerPanic(panic_message(p.as_ref())));
        (a, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::table;
    use crate::exec::ExecConfig;
    use crate::verify::VerifiedPlan;
    use fuzzy_storage::SimDisk;

    /// A sort pair whose helper side panics is a typed error once both
    /// sides are joined; the pages the other side wrote go back to the disk
    /// when the statement's scope closes, and the executor's next statement,
    /// whose sorts overlap, answers and counts as the serial engine does.
    #[test]
    fn a_panicking_overlap_is_a_typed_error_and_leaves_nothing_behind() {
        let disk = SimDisk::with_default_page_size();
        // R's X values run over 0..97, S's over 0..40: R's upper values are
        // in no S value, so they answer.
        let xs = |modulus: u32, shift: f64| -> Vec<(f64, f64)> {
            let x = |i: u32| f64::from(i % modulus) + shift;
            (0..600).map(|i| (x(i), x(i) + 1.5)).collect()
        };
        let mut catalog = Catalog::new();
        catalog.register(table(&disk, "R", &xs(97, 0.0)));
        catalog.register(table(&disk, "S", &xs(40, 0.5)));
        let sql = "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)";
        let plan = crate::build_plan(&fuzzy_sql::parse(sql).unwrap(), &catalog).unwrap();
        // Both tables span several pages, so each sort exceeds two pages.
        let config =
            ExecConfig { sort_pages: 2, buffer_pages: 2, threads: 2, ..Default::default() };
        let verified =
            VerifiedPlan::new(&plan, crate::Strategy::Unnest, &config, &catalog, None).unwrap();
        let lowered = verified.lowered();
        let names: Vec<&str> = lowered.outline.ops.iter().map(|op| op.name.as_str()).collect();
        assert_eq!(&names[..4], ["scan R", "scan S", "sort R by R.#1", "sort S by S.#1"]);

        let mut ex = Executor::new(&disk, config);
        let mut state = TreeState { slots: lowered.nodes.iter().map(|_| Slot::Empty).collect() };
        assert!(!overlaps(&ex, lowered, &state, 2), "inputs not published yet");
        for (k, name) in [(0, "R"), (1, "S")] {
            state.slots[k] = Slot::Table(catalog.table(name).unwrap().clone());
        }
        assert!(overlaps(&ex, lowered, &state, 2), "both sorts exceed the budget");
        let serial = Executor::new(&disk, ExecConfig { threads: 1, ..config });
        assert!(!overlaps(&serial, lowered, &state, 2), "one thread, no overlap");

        let baseline = disk.live_pages();
        disk.begin_alloc_log();
        let jobs = [2, 3].map(|k| sort_job(&mut ex, lowered, &mut state, k).unwrap());
        let [left, right] = jobs;
        let (helper, caller) = overlapped(
            move || -> Result<()> {
                drop(left);
                panic!("sort side failed")
            },
            || ex.sort_input(right, 1, &mut OperatorMetrics::default()),
        );
        assert!(matches!(helper, Err(EngineError::WorkerPanic(m)) if m == "sort side failed"));
        assert!(caller.is_ok(), "the caller's sort ran to the end");
        assert!(disk.live_pages() > baseline, "its runs and output are on the disk");
        for page in disk.take_alloc_log() {
            disk.free_page(page);
        }
        assert_eq!(disk.live_pages(), baseline);

        let io0 = disk.io();
        let (answer, metrics) = ex.run(&verified, &catalog).unwrap();
        // The helper's transfers are charged to its sort and added to the
        // statement's.
        let (io, t) = (disk.io().since(&io0), metrics.totals());
        assert_eq!((t.page_reads, t.page_writes), (io.reads, io.writes));
        let (want, serial_metrics) = Executor::new(&disk, ExecConfig { threads: 1, ..config })
            .run(&verified, &catalog)
            .unwrap();
        assert!(!answer.is_empty());
        assert_eq!(answer.canonicalized(), want.canonicalized());
        assert_eq!(metrics.deterministic(), serial_metrics.deterministic());
    }

    /// In a chain, the second merge step sorts the first step's pipelined
    /// rows beside a base table; when both exceed the budget they overlap,
    /// and the run answers and counts as the serial one does.
    #[test]
    fn pipelined_rows_overlap_with_a_table_sort() {
        let disk = SimDisk::with_default_page_size();
        let mut catalog = Catalog::new();
        for name in ["R", "S", "T"] {
            let xs: Vec<(f64, f64)> =
                (0..600).map(|i| (f64::from(i % 150), f64::from(i % 150) + 0.5)).collect();
            catalog.register(table(&disk, name, &xs));
        }
        let sql = "SELECT R.ID, S.ID, T.ID FROM R, S, T WHERE R.X = S.X AND S.X = T.X";
        let plan = crate::build_plan(&fuzzy_sql::parse(sql).unwrap(), &catalog).unwrap();
        let config =
            ExecConfig { sort_pages: 2, buffer_pages: 2, threads: 2, ..Default::default() };
        let verified =
            VerifiedPlan::new(&plan, crate::Strategy::Unnest, &config, &catalog, None).unwrap();
        let names: Vec<&str> =
            verified.lowered().outline.ops.iter().map(|op| op.name.as_str()).collect();
        assert!(names[6].starts_with("sort [") && names[7].starts_with("sort "), "{names:?}");
        let run = |threads: usize| {
            let io0 = disk.io();
            let (answer, metrics) = Executor::new(&disk, ExecConfig { threads, ..config })
                .run(&verified, &catalog)
                .unwrap();
            (answer.canonicalized(), metrics, disk.io().since(&io0))
        };
        let (want, serial, serial_io) = run(1);
        // The rows' sort cuts two runs, so their bytes exceed the budget,
        // and every base table has more pages than it: the pair overlaps.
        assert!(serial.ops()[6].metrics.sort_runs >= 2);
        assert!(catalog.table("R").unwrap().num_pages() > 2);
        let (answer, overlapped, io) = run(2);
        assert!(!want.is_empty());
        assert_eq!(answer, want);
        assert_eq!(overlapped.deterministic(), serial.deterministic());
        assert_eq!(io, serial_io);
    }
}
