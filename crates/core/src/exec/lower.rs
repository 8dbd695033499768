//! Lowering: turns a logical [`UnnestPlan`] into the physical operator tree
//! the executor drives, and the one record of every physical decision. Each
//! [`Node`] holds what its operator does — which method, which merge
//! columns, which sink — and declares its own properties from that and its
//! input slots ([`Node::declare`], one exhaustive match), so the
//! [`crate::verify`] static analysis checks exactly the tree that runs: the
//! verifier's [`Outline`] is derived from the nodes, one
//! [`crate::verify::PhysOp`] per [`Node`], same indices, same edges.
//!
//! Every `Rng(r)` merge window is picked by one rule, [`merge_driver`]: the
//! first exact equality, in predicate order, between a bound column and a
//! column of the joined table. A flat join step applies it to its evaluable
//! predicates, the anti form to its negated conjunction (the outer is the
//! bound side), the aggregate to its correlation.
//!
//! Lowering is *infallible*: all name resolution and binding that can fail
//! is deferred to when each operator runs, so `EXPLAIN`/`EXPLAIN VERIFY` can
//! render and check a tree without touching the disk. The catalog snapshot
//! it is given supplies only the cardinalities the join reorder ranks
//! tables by; the tree names its tables and holds no file, so a cached tree
//! runs against whatever data the executing statement's snapshot holds.
//!
//! Lowering takes the statement's [`Strategy`]. Under the two nested-loop
//! baselines there is no push-down (α = 0) and no merge driver, so every
//! join, anti, and aggregate step is a block nested loop. Each local
//! predicate is applied exactly once: by its table's filter scan, except
//! under plain [`Strategy::NestedLoop`], whose scans pass the base tables
//! through and whose operators evaluate p₁ per outer tuple and p₂ per pair.
//!
//! The anti forms (Theorems 5.1, 7.1) and the aggregate form (Theorem 6.1)
//! share one two-input lowering: an outer and an inner scan, a ⪯-sort of
//! each side that has a sort column, and the operator over them in one
//! [`Access`] mode — `Merge`, `Scan` or `NestedLoop`. The uncorrelated
//! aggregate (type A) is the `Scan` mode with no correlation. The node's
//! mode is the only record of that choice: the executor, the plan label
//! and `EXPLAIN` all read it.

use crate::engine::Strategy;
use crate::exec::{ExecConfig, JoinMethod, Layout};
use crate::plan::{
    AggPlan, AntiKind, AntiPlan, FlatPlan, PlanCol, PlanCompare, PlanOperand, PlanTable, UnnestPlan,
};
use crate::stats_histogram::StatsRegistry;
use crate::verify::{Outline, PhysOp, Prop};
use fuzzy_core::Degree;
use fuzzy_rel::Catalog;
use fuzzy_sql::Threshold;

/// A lowered plan: the plan as the executor actually runs it (join reorder
/// applied), the pushed-down pruning bound, the physical node for each
/// outline position, and the verifier-checkable outline derived from them.
pub(crate) struct Lowered {
    /// The plan after the same join reorder the executor applies.
    pub(crate) plan: UnnestPlan,
    /// A flat plan's table bindings in the order the statement wrote them,
    /// before the reorder (empty for anti and aggregate plans).
    pub(crate) written_order: Vec<String>,
    /// The estimated cardinalities the join reorder ranked the tables on,
    /// one per table of `plan` in its order, as the catalog snapshot stood
    /// when the plan was lowered (empty when the written order was kept).
    pub(crate) join_sizes: Vec<f64>,
    /// The pruning bound pushed into the pipeline (flat plans only).
    pub(crate) alpha: Degree,
    /// Each node's declaration: `ops[i]` is `nodes[i].declare` over the
    /// node's input slots.
    pub(crate) outline: Outline,
    /// The physical node per outline position.
    pub(crate) nodes: Vec<Node>,
}

/// What one join step does with its output (chosen at lowering time, by
/// looking at the *consumer*).
pub(crate) enum SinkMode {
    /// Final step: project straight into the answer rows.
    Answer {
        /// The projection columns.
        select: Vec<PlanCol>,
    },
    /// Pipelined: keep the concatenated tuples in memory for the next merge
    /// step's sort boundary.
    Rows,
    /// Materialize a temp table (the consumer re-scans by page).
    Materialize,
}

/// The exact equality that drives a flat join step's window or partitions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Driver {
    /// Its position among the step's evaluable predicates.
    pub(crate) pos: usize,
    /// The column on the bound side.
    pub(crate) bound: PlanCol,
    /// The column on the joined table.
    pub(crate) joined: PlanCol,
}

/// The physical method of one flat join step.
pub(crate) enum StepMethod {
    /// Extended merge-join on an exact-equality driver.
    Merge(Driver),
    /// Partitioned join on an exact-equality driver.
    Partitioned(Driver),
    /// Block nested-loop (no exact-equality driver).
    NestedLoop,
}

/// How a two-input operator — anti or aggregate — reads its inputs: the
/// candidates `Executor::fold_outer` presents to each outer tuple.
#[derive(Clone, PartialEq)]
pub(crate) enum Access {
    /// Merge window over inputs ⪯-sorted on these columns, correlated on
    /// their exact equality.
    Merge {
        /// The outer's merge column.
        outer: PlanCol,
        /// The inner's merge column.
        inner: PlanCol,
    },
    /// The inner set built once, the outer streamed against it: sorted on
    /// the correlation column when there is one, so equal values arrive
    /// together; the uncorrelated aggregate shares one group.
    Scan,
    /// Block nested loop (the baselines); evaluates the local predicates its
    /// plan's tables still carry, p₁ per outer tuple and p₂ per pair.
    NestedLoop,
}

impl Access {
    /// The method tag of an anti plan's label.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Access::Merge { .. } => "merge",
            Access::Scan => "scan",
            Access::NestedLoop => "nested-loop",
        }
    }
}

/// The merge driver among `preds`: the first exact equality, in predicate
/// order, between a column of a binding in `bound` and a column of
/// `joined`, oriented (bound, joined). Exact means `=` with no tolerance: a
/// similarity's tolerance-widened matches are not bounded by support
/// intersection, so a window driven by it would miss pairs (a flat join) or
/// over-report group minima (the anti form). Every merge window is picked
/// here: a flat join step's over its bound layout, the anti form's over its
/// negated conjunction with the outer as the bound side, and the
/// aggregate's over its correlation.
pub(crate) fn merge_driver(preds: &[PlanCompare], bound: &Layout, joined: &str) -> Option<Driver> {
    preds.iter().enumerate().find_map(|(pos, pr)| {
        if !pr.is_exact_eq() {
            return None;
        }
        let (l, r) = (pr.lhs.as_col()?, pr.rhs.as_col()?);
        let (b, j) = if bound.contains(&l.binding) && r.binding == joined {
            (l, r)
        } else if bound.contains(&r.binding) && l.binding == joined {
            (r, l)
        } else {
            return None;
        };
        Some(Driver { pos, bound: b.clone(), joined: j.clone() })
    })
}

/// Everything one flat join step needs when it runs.
pub(crate) struct JoinStep {
    /// The step's physical method.
    pub(crate) method: StepMethod,
    /// Predicates evaluable at this step, in plan order, the driver among
    /// them.
    pub(crate) preds: Vec<PlanCompare>,
    /// Layout of the bound side (before this step).
    pub(crate) layout: Layout,
    /// Layout after this step joins its table.
    pub(crate) next_layout: Layout,
    /// The pushed-down pruning bound.
    pub(crate) alpha: Degree,
    /// Where the step's output goes.
    pub(crate) sink: SinkMode,
}

impl JoinStep {
    /// The driving equality (`None` for a block nested loop).
    pub(crate) fn driver(&self) -> Option<&Driver> {
        match &self.method {
            StepMethod::Merge(d) | StepMethod::Partitioned(d) => Some(d),
            StepMethod::NestedLoop => None,
        }
    }

    /// The evaluable predicates other than the driver, in plan order.
    pub(crate) fn residuals(&self) -> impl Iterator<Item = &PlanCompare> {
        let driver = self.driver().map(|d| d.pos);
        self.preds.iter().enumerate().filter(move |&(j, _)| Some(j) != driver).map(|(_, p)| p)
    }
}

/// One physical node of a lowered tree: what `nodes[i]` computes. Its inputs
/// are the outputs of the nodes `outline.ops[i].inputs` names, the edges the
/// verifier checked; the node itself holds no edges.
pub(crate) enum Node {
    /// Filter scan of a base table at a degree bound.
    Scan {
        /// The table to scan.
        table: PlanTable,
        /// Tuples below this bound are dropped.
        min_degree: Degree,
    },
    /// Single-table select + project straight to answer rows.
    Select {
        /// The (only) plan table.
        table: PlanTable,
        /// Remaining predicates.
        preds: Vec<PlanCompare>,
        /// Projection columns.
        select: Vec<PlanCol>,
        /// The degree bound its scan delivers.
        min_degree: Degree,
    },
    /// External ⪯-sort of a table or a pipelined row buffer.
    Sort {
        /// Layout of the input stream (resolves the sort column).
        layout: Layout,
        /// The sort column.
        col: PlanCol,
        /// The α-cut the interval order uses.
        alpha: Degree,
        /// The input is a flat step's bound side, named by its bindings
        /// (`sort [R×S] by …`), rather than one base table (`sort S by …`).
        bound_side: bool,
    },
    /// One flat join step.
    Join {
        /// The step description.
        step: JoinStep,
    },
    /// Grouped MIN(D) anti accumulation.
    Anti {
        /// The anti plan.
        plan: AntiPlan,
        /// How the inputs are read.
        access: Access,
    },
    /// Nested aggregate evaluation.
    Agg {
        /// The aggregate plan.
        plan: AggPlan,
        /// How the inputs are read.
        access: Access,
    },
    /// Project/emit: fuzzy-OR dedup + final threshold.
    Output {
        /// Layout the projection resolves against.
        layout: Layout,
        /// Projection columns.
        select: Vec<PlanCol>,
        /// The statement's `WITH D > z` threshold.
        threshold: Option<Threshold>,
    },
}

impl Node {
    /// The columns an anti or aggregate node's outer and inner arrive
    /// ⪯-sorted on: both merge columns, or under `Scan` an aggregate's outer
    /// on its correlation column; none for any other node.
    fn sorted_inputs(&self) -> [Option<&PlanCol>; 2] {
        let (access, scan_outer) = match self {
            Node::Anti { access, .. } => (access, None),
            Node::Agg { plan, access } => (access, plan.corr.as_ref().map(|(u, _, _)| u)),
            _ => return [None, None],
        };
        match access {
            Access::Merge { outer, inner } => [Some(outer), Some(inner)],
            Access::Scan => [scan_outer, None],
            Access::NestedLoop => [None, None],
        }
    }

    /// The node's property declaration over its input slots `inputs`: what
    /// it requires of each input and what its output delivers.
    fn declare(&self, inputs: Vec<usize>) -> PhysOp {
        let binding = |b: &str| Prop::Binding(b.to_string());
        // An anti or aggregate operator: each input ⪯-sorted on its
        // `sorted` column where it has one, then both inputs' bindings; it
        // delivers the outer binding.
        let two_input = |name: &str, [outer, inner]: [&PlanTable; 2], inputs| {
            let z = Degree::ZERO;
            let sorted = self.sorted_inputs();
            let sorts = (0..2)
                .filter_map(|k| Some((k, Prop::Sorted { col: sorted[k]?.clone(), alpha: z })));
            let bindings =
                [outer, inner].into_iter().enumerate().map(|(k, t)| (k, binding(&t.binding)));
            PhysOp::declare(
                format!("{name} {} x {}", outer.binding, inner.binding),
                inputs,
                sorts.chain(bindings).collect(),
                vec![binding(&outer.binding), Prop::MinDegree(z)],
            )
        };
        match self {
            Node::Scan { table, min_degree } => PhysOp::declare(
                format!("scan {}", table.binding),
                inputs,
                vec![],
                vec![binding(&table.binding), Prop::MinDegree(*min_degree)],
            ),
            Node::Select { table, min_degree, .. } => PhysOp::declare(
                format!("select {}", table.binding),
                inputs,
                vec![(0, binding(&table.binding)), (0, Prop::MinDegree(*min_degree))],
                vec![binding(&table.binding), Prop::MinDegree(*min_degree)],
            ),
            Node::Sort { layout, col, alpha, bound_side } => {
                let sorted = layout.bindings().collect::<Vec<_>>().join("×");
                let sorted = if *bound_side { format!("[{sorted}]") } else { sorted };
                PhysOp::declare(
                    format!("sort {sorted} by {col}"),
                    inputs,
                    vec![(0, binding(&col.binding)), (0, Prop::MinDegree(*alpha))],
                    layout
                        .bindings()
                        .map(binding)
                        .chain([
                            Prop::Sorted { col: col.clone(), alpha: *alpha },
                            Prop::MinDegree(*alpha),
                        ])
                        .collect(),
                )
            }
            Node::Join { step } => {
                let alpha = step.alpha;
                let joined = step.next_layout.bindings().last().unwrap_or_default();
                // Both inputs' degree bounds, then the binding provenance
                // of the step's predicates, in plan order.
                let provenance = step.preds.iter().flat_map(PlanCompare::bindings);
                let mut requires = first_of_each(
                    [(0, Prop::MinDegree(alpha)), (1, Prop::MinDegree(alpha))]
                        .into_iter()
                        .chain(provenance.map(|b| (usize::from(b == joined), binding(b)))),
                );
                let method = match &step.method {
                    StepMethod::Merge(d) => {
                        requires.push((0, Prop::Sorted { col: d.bound.clone(), alpha }));
                        requires.push((1, Prop::Sorted { col: d.joined.clone(), alpha }));
                        "merge-join"
                    }
                    StepMethod::Partitioned(_) => "partitioned-join",
                    StepMethod::NestedLoop => "nested-loop",
                };
                PhysOp::declare(
                    format!("{method} +{joined}"),
                    inputs,
                    requires,
                    step.next_layout
                        .bindings()
                        .map(binding)
                        .chain([Prop::MinDegree(alpha)])
                        .collect(),
                )
            }
            Node::Anti { plan, access } => {
                let name = match access {
                    Access::Merge { .. } => "anti-merge",
                    Access::Scan => "anti-scan",
                    Access::NestedLoop => "nested-loop-anti",
                };
                two_input(name, [&plan.outer, &plan.inner], inputs)
            }
            Node::Agg { plan, access } => {
                let name = match (access, &plan.corr) {
                    (Access::Merge { .. }, _) => "agg-merge",
                    (Access::Scan, Some(_)) => "agg-scan",
                    (Access::Scan, None) => "agg-const",
                    (Access::NestedLoop, _) => "nested-loop-agg",
                };
                two_input(name, [&plan.outer, &plan.inner], inputs)
            }
            Node::Output { select, .. } => {
                let requires = first_of_each(select.iter().map(|c| (0, binding(&c.binding))));
                PhysOp::declare("output", inputs, requires, vec![Prop::DupMax])
            }
        }
    }
}

/// `reqs` with each requirement kept once, where it first occurs.
fn first_of_each(reqs: impl IntoIterator<Item = (usize, Prop)>) -> Vec<(usize, Prop)> {
    let mut out = Vec::new();
    for req in reqs {
        if !out.contains(&req) {
            out.push(req);
        }
    }
    out
}

/// The nodes of a tree under construction, each with its input slots.
type Tree = Vec<(Node, Vec<usize>)>;

/// Appends `node` over `inputs`, returning its slot.
fn add(tree: &mut Tree, node: Node, inputs: Vec<usize>) -> usize {
    tree.push((node, inputs));
    tree.len() - 1
}

/// Lowers a plan under a strategy and a configuration: applies the
/// optimizer's join reorder, derives the push-down bound, and emits the
/// operator tree, whose outline each node declares. This is the single
/// source of physical decisions — the executor runs the tree, the verifier
/// checks it, and `EXPLAIN` renders it. [`Strategy::Naive`] has no operator
/// tree; the engine never lowers it (it would lower like
/// [`Strategy::Unnest`]).
pub(crate) fn lower(
    plan: &UnnestPlan,
    strategy: Strategy,
    config: &ExecConfig,
    catalog: &Catalog,
    stats: Option<&StatsRegistry>,
) -> Lowered {
    let written_order = match plan {
        UnnestPlan::Flat(p) => p.tables.iter().map(|t| t.binding.clone()).collect(),
        _ => Vec::new(),
    };
    let (plan, join_sizes) = effective_plan(plan, config, catalog, stats);
    let alpha = if strategy.is_baseline() { Degree::ZERO } else { pushdown_alpha(config, &plan) };
    let tree = match &plan {
        UnnestPlan::Flat(p) => lower_flat(p, strategy, config, alpha),
        UnnestPlan::Anti(p) => {
            let access = two_input_access(strategy, &p.pair_preds, &p.outer, &p.inner);
            let node = |[outer, inner]: [PlanTable; 2]| Node::Anti {
                plan: AntiPlan { outer, inner, ..p.clone() },
                access,
            };
            lower_two_input([&p.outer, &p.inner], strategy, node, &p.select, p.threshold)
        }
        UnnestPlan::Agg(p) => {
            // The correlation `S.V op₂ R.U`: only an exact equality windows
            // the inner; otherwise the scan sorts the outer on U so that
            // equal values share one group.
            let corr: Vec<PlanCompare> = (p.corr.iter())
                .map(|(u, op, v)| {
                    PlanCompare::new(PlanOperand::Col(v.clone()), *op, PlanOperand::Col(u.clone()))
                })
                .collect();
            let access = two_input_access(strategy, &corr, &p.outer, &p.inner);
            let node = |[outer, inner]: [PlanTable; 2]| Node::Agg {
                plan: AggPlan { outer, inner, ..p.clone() },
                access,
            };
            lower_two_input([&p.outer, &p.inner], strategy, node, &p.select, p.threshold)
        }
    };
    let (nodes, ops) = tree
        .into_iter()
        .map(|(node, inputs)| {
            let op = node.declare(inputs);
            (node, op)
        })
        .unzip();
    Lowered { plan, written_order, join_sizes, alpha, outline: Outline { ops }, nodes }
}

/// How an anti or aggregate operator reads `outer` and `inner` under
/// `strategy`: a block nested loop under the baselines, else a merge window
/// on the [`merge_driver`] of `preds` (with the outer as the bound side),
/// else a scan.
fn two_input_access(
    strategy: Strategy,
    preds: &[PlanCompare],
    outer: &PlanTable,
    inner: &PlanTable,
) -> Access {
    if strategy.is_baseline() {
        return Access::NestedLoop;
    }
    match merge_driver(preds, &Layout::of_table(outer), &inner.binding) {
        Some(d) => Access::Merge { outer: d.bound, inner: d.joined },
        None => Access::Scan,
    }
}

/// The degree bound a pushed-down `WITH D > z` threshold lets the plan's
/// operators prune at: z for a flat plan when push-down is enabled and a
/// threshold exists, else 0. Sound for flat plans only — every conjunct of
/// their final min must reach the threshold, so pairs below it can never
/// contribute an answer row. The anti and aggregate forms accumulate MIN
/// over *negated* degrees — a low-degree pair still lowers its group's
/// degree — so they never prune; the verifier checks the bound stored in
/// [`Lowered::alpha`] against both rules (`V-THRESH-WIDEN` /
/// `V-THRESH-SCOPE`).
fn pushdown_alpha(config: &ExecConfig, plan: &UnnestPlan) -> Degree {
    match (plan, config.threshold_pushdown) {
        (UnnestPlan::Flat(p), true) => p.threshold.map_or(Degree::ZERO, |t| Degree::clamped(t.z)),
        _ => Degree::ZERO,
    }
}

/// Splits a table's local predicates between its scan and the operator that
/// consumes it: returns the table the scan reads and the predicates the
/// operator evaluates inline. Plain nested loop evaluates them inside its
/// operators; every other strategy filters at the scan.
fn split_local(t: &PlanTable, strategy: Strategy) -> (PlanTable, Vec<PlanCompare>) {
    if strategy == Strategy::NestedLoop {
        let scanned = PlanTable { local_preds: Vec::new(), ..t.clone() };
        (scanned, t.local_preds.clone())
    } else {
        (t.clone(), Vec::new())
    }
}

/// The plan as the executor will actually run it: multi-way flat joins are
/// reordered through the optimizer entry point with the cardinalities of
/// `catalog` and the same statistics the executor sees. Also returns the
/// estimates a changed order was ranked on (empty otherwise).
fn effective_plan(
    plan: &UnnestPlan,
    config: &ExecConfig,
    catalog: &Catalog,
    stats: Option<&StatsRegistry>,
) -> (UnnestPlan, Vec<f64>) {
    match plan {
        UnnestPlan::Flat(p) if config.reorder_joins && p.tables.len() > 2 => {
            let mut reordered = p.clone();
            let sizes = crate::optimizer::reorder_joins_with(&mut reordered, catalog, stats);
            (UnnestPlan::Flat(reordered), sizes.unwrap_or_default())
        }
        other => (other.clone(), Vec::new()),
    }
}

fn lower_flat(p: &FlatPlan, strategy: Strategy, config: &ExecConfig, alpha: Degree) -> Tree {
    let mut tree = Tree::new();
    // The local predicates each table's consuming step evaluates inline.
    let mut inline: Vec<Vec<PlanCompare>> = Vec::new();
    let mut scans: Vec<usize> = Vec::new();
    for t in &p.tables {
        let (scanned, preds) = split_local(t, strategy);
        inline.push(preds);
        scans.push(add(&mut tree, Node::Scan { table: scanned, min_degree: alpha }, vec![]));
    }
    let Some(&first) = scans.first() else {
        return tree; // empty FROM: the driver errors out
    };
    if p.tables.len() == 1 {
        let t = &p.tables[0];
        let select = Node::Select {
            table: t.clone(),
            preds: inline[0].iter().chain(&p.join_preds).cloned().collect(),
            select: p.select.clone(),
            min_degree: alpha,
        };
        let sel = add(&mut tree, select, vec![first]);
        let output = Node::Output {
            layout: Layout::of_table(t),
            select: p.select.clone(),
            threshold: p.threshold,
        };
        add(&mut tree, output, vec![sel]);
        return tree;
    }

    // Pass 1: every step's predicates, method and layouts, decided before
    // any node is emitted so that a step can see its *consumer*.
    let mut layout = Layout::of_table(&p.tables[0]);
    let mut remaining: Vec<PlanCompare> = p.join_preds.clone();
    let mut steps: Vec<JoinStep> = Vec::new();
    for (i, t) in p.tables.iter().enumerate().skip(1) {
        let last = i == p.tables.len() - 1;
        let mut next_layout = layout.clone();
        next_layout.push(t);
        // Predicates that become evaluable once t is joined; on the last
        // step every remaining predicate must be applied.
        let (joins, kept): (Vec<PlanCompare>, Vec<PlanCompare>) =
            remaining.into_iter().partition(|pr| {
                last || pr.bindings().iter().all(|b| layout.contains(b) || *b == t.binding)
            });
        remaining = kept;
        // Inline local predicates go first: p₁ of the first table, then p₂
        // of the joined one, then the joins.
        let firsts = if i == 1 { inline[0].as_slice() } else { &[] };
        let preds: Vec<PlanCompare> =
            firsts.iter().chain(&inline[i]).cloned().chain(joins).collect();
        // The baselines take no driver: every step is a block nested loop.
        let driver =
            if strategy.is_baseline() { None } else { merge_driver(&preds, &layout, &t.binding) };
        let method = match (driver, config.join_method) {
            (Some(d), JoinMethod::Merge) => StepMethod::Merge(d),
            (Some(d), JoinMethod::Partitioned) => StepMethod::Partitioned(d),
            (None, _) => StepMethod::NestedLoop,
        };
        let next = next_layout.clone();
        let sink = SinkMode::Materialize; // set below, once its consumer is known
        steps.push(JoinStep { method, preds, layout, next_layout, alpha, sink });
        layout = next;
    }
    // Each step's sink, decided by its consumer: the last step streams into
    // the answer; a step feeding a merge step's sort boundary pipelines in
    // memory; anything else (partitioned or nested-loop consumers re-scan by
    // page) materializes a temp table.
    for k in 0..steps.len() {
        steps[k].sink = match steps.get(k + 1) {
            None => SinkMode::Answer { select: p.select.clone() },
            Some(next) if matches!(next.method, StepMethod::Merge(_)) => SinkMode::Rows,
            Some(_) => SinkMode::Materialize,
        };
    }

    // Pass 2: emit the nodes; a merge step sorts both its inputs.
    let mut cur = first;
    for ((step, &scan), t) in steps.into_iter().zip(&scans[1..]).zip(&p.tables[1..]) {
        let inputs = match &step.method {
            StepMethod::Merge(d) => {
                let left = Node::Sort {
                    layout: step.layout.clone(),
                    col: d.bound.clone(),
                    alpha,
                    bound_side: true,
                };
                let right = Node::Sort {
                    layout: Layout::of_table(t),
                    col: d.joined.clone(),
                    alpha,
                    bound_side: false,
                };
                vec![add(&mut tree, left, vec![cur]), add(&mut tree, right, vec![scan])]
            }
            StepMethod::Partitioned(_) | StepMethod::NestedLoop => vec![cur, scan],
        };
        cur = add(&mut tree, Node::Join { step }, inputs);
    }
    let output = Node::Output { layout, select: p.select.clone(), threshold: p.threshold };
    add(&mut tree, output, vec![cur]);
    tree
}

/// Lowers a two-input (anti or aggregate) operator over `tables` (outer,
/// inner): a scan of each, a ⪯-sort of each side the operator reads sorted,
/// the operator, and the output. `node` builds the operator from the two
/// tables, which are left carrying the local predicates it evaluates
/// inline.
fn lower_two_input(
    tables: [&PlanTable; 2],
    strategy: Strategy,
    node: impl FnOnce([PlanTable; 2]) -> Node,
    select: &[PlanCol],
    threshold: Option<Threshold>,
) -> Tree {
    let z = Degree::ZERO;
    let mut tree = Tree::new();
    let split = tables.map(|t| split_local(t, strategy));
    let scans = split.each_ref().map(|(scanned, _)| {
        add(&mut tree, Node::Scan { table: scanned.clone(), min_degree: z }, vec![])
    });
    let op = node(split.map(|(scanned, inline)| PlanTable { local_preds: inline, ..scanned }));
    let mut inputs = scans;
    for (k, col) in op.sorted_inputs().into_iter().enumerate() {
        if let Some(col) = col {
            let sort = Node::Sort {
                layout: Layout::of_table(tables[k]),
                col: col.clone(),
                alpha: z,
                bound_side: false,
            };
            inputs[k] = add(&mut tree, sort, vec![scans[k]]);
        }
    }
    let root = add(&mut tree, op, inputs.to_vec());
    let output =
        Node::Output { layout: Layout::of_table(tables[0]), select: select.to_vec(), threshold };
    add(&mut tree, output, vec![root]);
    tree
}

impl Lowered {
    /// A short label of the plan shape (for EXPLAIN and experiment logs);
    /// an anti plan is tagged with the method its anti node runs.
    pub(crate) fn label(&self) -> String {
        match &self.plan {
            UnnestPlan::Flat(p) => format!("flat-join[{} tables]", p.tables.len()),
            UnnestPlan::Anti(p) => {
                let method = self.access().map_or("?", Access::name);
                match p.kind {
                    AntiKind::Exclusion => format!("anti-exclusion[{method}]"),
                    AntiKind::All { op, .. } => format!("anti-all[{op} {method}]"),
                }
            }
            UnnestPlan::Agg(p) => match &p.corr {
                Some((_, op, _)) => format!("agg[{} corr {}]", p.agg.0.name(), op),
                None => format!("agg[{} const]", p.agg.0.name()),
            },
        }
    }

    /// How the tree's anti or aggregate operator reads its inputs (`None`
    /// for a flat plan).
    pub(crate) fn access(&self) -> Option<&Access> {
        self.nodes.iter().find_map(|n| match n {
            Node::Anti { access, .. } | Node::Agg { access, .. } => Some(access),
            _ => None,
        })
    }

    /// `EXPLAIN` annotation for a join node: what its output feeds.
    pub(crate) fn sink_note(&self, i: usize) -> Option<&'static str> {
        match &self.nodes[i] {
            Node::Join { step } => Some(match &step.sink {
                SinkMode::Answer { .. } => "-> answer",
                SinkMode::Rows => "-> pipelined",
                SinkMode::Materialize => "-> temp table",
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::{CmpOp, Value};
    use fuzzy_rel::{AttrType, Schema};

    fn col(b: &str, attr: usize) -> PlanCol {
        PlanCol { binding: b.into(), attr }
    }

    fn cmp(l: PlanCol, op: CmpOp, r: PlanOperand) -> PlanCompare {
        PlanCompare::new(PlanOperand::Col(l), op, r)
    }

    /// The layout of the bound bindings, each a three-column table.
    fn bound(bindings: &[&str]) -> Layout {
        let schema = Schema::of(&[
            ("A", AttrType::Number),
            ("B", AttrType::Number),
            ("C", AttrType::Number),
        ]);
        let mut layout = Layout::default();
        for b in bindings {
            let t = PlanTable {
                binding: b.to_string(),
                name: b.to_string(),
                schema: schema.clone(),
                local_preds: Vec::new(),
            };
            layout.push(&t);
        }
        layout
    }

    #[test]
    fn the_first_exact_equality_in_predicate_order_drives() {
        let c = |b, a| PlanOperand::Col(col(b, a));
        let mut similar = cmp(col("R", 1), CmpOp::Eq, c("S", 1));
        similar.tolerance = Some(5.0);
        // None of these may drive a window over S.
        let never = vec![
            similar,
            cmp(col("R", 1), CmpOp::Lt, c("S", 1)),
            cmp(col("S", 1), CmpOp::Eq, PlanOperand::Const(Value::number(5.0))),
            cmp(col("S", 0), CmpOp::Eq, c("S", 1)),
            cmp(col("R", 0), CmpOp::Eq, c("R", 1)),
        ];
        let r = bound(&["R"]);
        assert_eq!(merge_driver(&never, &r, "S"), None);
        // After them, the first exact equality wins, in either orientation,
        // and comes back as (bound, joined).
        let mut preds = never.clone();
        preds.push(cmp(col("S", 2), CmpOp::Eq, c("R", 2)));
        preds.push(cmp(col("R", 1), CmpOp::Eq, c("S", 1)));
        let want = Driver { pos: 5, bound: col("R", 2), joined: col("S", 2) };
        assert_eq!(merge_driver(&preds, &r, "S"), Some(want));
        let forward = [cmp(col("R", 1), CmpOp::Eq, c("S", 0))];
        let want = Driver { pos: 0, bound: col("R", 1), joined: col("S", 0) };
        assert_eq!(merge_driver(&forward, &r, "S"), Some(want));
        // Any binding of a multi-table bound side may drive.
        let chain = [cmp(col("S", 0), CmpOp::Eq, c("T", 1))];
        let want = Driver { pos: 0, bound: col("T", 1), joined: col("S", 0) };
        assert_eq!(merge_driver(&chain, &bound(&["R", "T"]), "S"), Some(want));
        assert_eq!(merge_driver(&chain, &r, "S"), None);
    }
}
