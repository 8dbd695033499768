//! Lowering: turns a logical [`UnnestPlan`] into the physical operator tree
//! the executor drives — and, because every node is emitted *together with*
//! its property declaration, the [`crate::verify`] static analysis checks
//! exactly the tree that runs. There is no separately mirrored outline: the
//! verifier's [`Outline`] is the `ops` field of the [`Lowered`] plan, one
//! [`crate::verify::PhysOp`] per [`Node`], same indices, same edges.
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
use crate::exec::{agg, anti, block_nl, filter_scan, flat, merge_join, output, partitioned, sort};
use crate::exec::{ExecConfig, JoinMethod, Layout};
use crate::plan::{
    AggPlan, AntiKind, AntiPlan, FlatPlan, PlanCol, PlanCompare, PlanTable, UnnestPlan,
};
use crate::stats_histogram::StatsRegistry;
use crate::verify::{Outline, PhysOp, Prop};
use fuzzy_core::{CmpOp, Degree};
use fuzzy_rel::Catalog;
use fuzzy_sql::Threshold;

/// A lowered plan: the plan as the executor actually runs it (join reorder
/// applied), the pushed-down pruning bound, the verifier-checkable operator
/// outline, and the physical node for each outline position.
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
    /// The property-carrying operator tree; `ops[i]` declares `nodes[i]`.
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

/// The physical method of one flat join step.
pub(crate) enum StepMethod {
    /// Extended merge-join on an exact-equality driver.
    Merge {
        /// Driver column on the bound side.
        cur_col: PlanCol,
        /// Driver column on the joined table.
        next_col: PlanCol,
    },
    /// Partitioned join on an exact-equality driver.
    Partitioned {
        /// Driver column on the bound side.
        cur_col: PlanCol,
        /// Driver column on the joined table.
        next_col: PlanCol,
    },
    /// Block nested-loop (no exact-equality driver).
    NestedLoop,
}

/// How a two-input operator — anti or aggregate — reads its outer and inner
/// inputs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Merge window over ⪯-sorted inputs (correlated on an equality).
    Merge,
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
    pub(crate) fn name(self) -> &'static str {
        match self {
            Access::Merge => "merge",
            Access::Scan => "scan",
            Access::NestedLoop => "nested-loop",
        }
    }
}

/// The declaration of a two-input operator named `name` over `inputs`
/// (outer, inner): each input ⪯-sorted on its `sorted` column where it has
/// one, then both inputs' bindings; it delivers the outer binding.
pub(crate) fn declare_two_input(
    name: &str,
    [outer, inner]: [&PlanTable; 2],
    inputs: [usize; 2],
    sorted: [Option<&PlanCol>; 2],
) -> PhysOp {
    let z = Degree::ZERO;
    let sorts =
        (0..2).filter_map(|k| Some((k, Prop::Sorted { col: sorted[k]?.clone(), alpha: z })));
    let bindings =
        [outer, inner].into_iter().enumerate().map(|(k, t)| (k, Prop::Binding(t.binding.clone())));
    PhysOp::declare(
        format!("{name} {} x {}", outer.binding, inner.binding),
        inputs.to_vec(),
        sorts.chain(bindings).collect(),
        vec![Prop::Binding(outer.binding.clone()), Prop::MinDegree(z)],
    )
}

/// Everything one flat join step needs when it runs.
pub(crate) struct JoinStep {
    /// The step's physical method.
    pub(crate) method: StepMethod,
    /// Evaluable predicates minus the driver, in plan order.
    pub(crate) residuals: Vec<PlanCompare>,
    /// Layout of the bound side (before this step).
    pub(crate) layout: Layout,
    /// Layout after this step joins its table.
    pub(crate) next_layout: Layout,
    /// The pushed-down pruning bound.
    pub(crate) alpha: Degree,
    /// Where the step's output goes.
    pub(crate) sink: SinkMode,
}

/// One physical node of a lowered tree: what `nodes[i]` computes. Its inputs
/// are the outputs of the nodes `outline.ops[i].inputs` names, the edges the
/// verifier checked; the node itself holds no edges.
pub(crate) enum Node {
    /// Filter scan of a base table at a degree bound.
    Scan {
        /// The table to scan.
        table: crate::plan::PlanTable,
        /// Tuples below this bound are dropped.
        min_degree: Degree,
    },
    /// Single-table select + project straight to answer rows.
    Select {
        /// The (only) plan table.
        table: crate::plan::PlanTable,
        /// Remaining predicates.
        preds: Vec<PlanCompare>,
        /// Projection columns.
        select: Vec<PlanCol>,
    },
    /// External ⪯-sort of a table or a pipelined row buffer.
    Sort {
        /// Layout of the input stream (resolves the sort column).
        layout: Layout,
        /// The sort column.
        col: PlanCol,
        /// The α-cut the interval order uses.
        alpha: Degree,
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

/// Lowers a plan under a strategy and a configuration: applies the
/// optimizer's join reorder, derives the push-down bound, and emits the
/// operator tree with its property declarations. This is the single source
/// of physical decisions — the executor runs the tree, the verifier checks
/// it, and `EXPLAIN` renders it. [`Strategy::Naive`] has no operator tree;
/// the engine never lowers it (it would lower like [`Strategy::Unnest`]).
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
    let (ops, nodes) = match &plan {
        UnnestPlan::Flat(p) => lower_flat(p, strategy, config, alpha),
        UnnestPlan::Anti(p) => {
            let (access, sorted) = match &p.window {
                _ if strategy.is_baseline() => (Access::NestedLoop, [None, None]),
                Some((o, i)) => (Access::Merge, [Some(o), Some(i)]),
                None => (Access::Scan, [None, None]),
            };
            let op = |inputs, [outer, inner]: [PlanTable; 2]| {
                let plan = AntiPlan { outer, inner, ..p.clone() };
                (anti::declared_properties(p, access, inputs, sorted), Node::Anti { plan, access })
            };
            lower_two_input([&p.outer, &p.inner], sorted, strategy, op, &p.select, p.threshold)
        }
        UnnestPlan::Agg(p) => {
            let (access, sorted) = match &p.corr {
                _ if strategy.is_baseline() => (Access::NestedLoop, [None, None]),
                Some((u, CmpOp::Eq, v)) => (Access::Merge, [Some(u), Some(v)]),
                // A non-equality correlation cannot window the inner; the
                // outer is sorted so that equal values share one group.
                Some((u, _, _)) => (Access::Scan, [Some(u), None]),
                None => (Access::Scan, [None, None]),
            };
            let op = |inputs, [outer, inner]: [PlanTable; 2]| {
                let plan = AggPlan { outer, inner, ..p.clone() };
                (agg::declared_properties(p, access, inputs, sorted), Node::Agg { plan, access })
            };
            lower_two_input([&p.outer, &p.inner], sorted, strategy, op, &p.select, p.threshold)
        }
    };
    Lowered { plan, written_order, join_sizes, alpha, outline: Outline { ops }, nodes }
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

fn push(ops: &mut Vec<PhysOp>, nodes: &mut Vec<Node>, op: PhysOp, node: Node) -> usize {
    ops.push(op);
    nodes.push(node);
    ops.len() - 1
}

/// One flat join step's decisions, computed for every step before any node
/// is emitted so a step can see its *consumer* (the pipelining decision).
struct StepPlan {
    /// Predicates evaluable at this step, in plan order.
    evaluable: Vec<PlanCompare>,
    /// The merge driver, if an exact equality links the bound side and `t`:
    /// (bound-side column, t's column, position within `evaluable`).
    driver: Option<(PlanCol, PlanCol, usize)>,
    /// Layout before this step.
    layout: Layout,
    /// Layout after this step.
    next_layout: Layout,
    /// Bound binding names before this step.
    bound: Vec<String>,
}

fn lower_flat(
    p: &FlatPlan,
    strategy: Strategy,
    config: &ExecConfig,
    alpha: Degree,
) -> (Vec<PhysOp>, Vec<Node>) {
    let mut ops: Vec<PhysOp> = Vec::new();
    let mut nodes: Vec<Node> = Vec::new();
    let mut scans: Vec<usize> = Vec::new();
    // The local predicates each table's consuming step evaluates inline.
    let mut inline: Vec<Vec<PlanCompare>> = Vec::new();
    for t in &p.tables {
        let (scanned, preds) = split_local(t, strategy);
        inline.push(preds);
        scans.push(push(
            &mut ops,
            &mut nodes,
            filter_scan::declared_properties(&t.binding, alpha),
            Node::Scan { table: scanned, min_degree: alpha },
        ));
    }
    let first = match scans.first().copied() {
        Some(s) => s,
        None => return (ops, nodes), // empty FROM: the driver errors out
    };
    if p.tables.len() == 1 {
        let t = &p.tables[0];
        let sel = push(
            &mut ops,
            &mut nodes,
            flat::declared_properties_select(&t.binding, alpha, first),
            Node::Select {
                table: t.clone(),
                preds: inline[0].iter().chain(&p.join_preds).cloned().collect(),
                select: p.select.clone(),
            },
        );
        push(
            &mut ops,
            &mut nodes,
            output::declared_properties(sel, &p.select),
            Node::Output {
                layout: Layout::of_table(t),
                select: p.select.clone(),
                threshold: p.threshold,
            },
        );
        return (ops, nodes);
    }

    // Pass 1: per-step decisions (evaluable predicates, merge driver,
    // layouts) — computed up front so pass 2 can consult a step's consumer
    // when deciding whether its output pipelines or materializes.
    let mut layout = Layout::of_table(&p.tables[0]);
    let mut bound: Vec<String> = vec![p.tables[0].binding.clone()];
    let mut remaining: Vec<PlanCompare> = p.join_preds.clone();
    let mut steps: Vec<StepPlan> = Vec::new();
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
        let evaluable: Vec<PlanCompare> =
            firsts.iter().chain(&inline[i]).cloned().chain(joins).collect();
        // Pick an exact equality between the bound set and t as merge
        // driver. Similarity predicates (op Eq with a tolerance) must
        // not drive: their widened matches are not bounded by support
        // intersection, so the merge window would miss pairs — they stay
        // residuals, evaluated with their tolerance. The baselines take no
        // driver: every step is a block nested loop.
        let driver = evaluable.iter().enumerate().find_map(|(pos, pr)| {
            if strategy.is_baseline() {
                return None;
            }
            if pr.op != CmpOp::Eq || pr.tolerance.is_some() {
                return None;
            }
            match (pr.lhs.as_col(), pr.rhs.as_col()) {
                (Some(l), Some(r)) if layout.contains(&l.binding) && r.binding == t.binding => {
                    Some((l.clone(), r.clone(), pos))
                }
                (Some(l), Some(r)) if layout.contains(&r.binding) && l.binding == t.binding => {
                    Some((r.clone(), l.clone(), pos))
                }
                _ => None,
            }
        });
        steps.push(StepPlan {
            evaluable,
            driver,
            layout: layout.clone(),
            next_layout: next_layout.clone(),
            bound: bound.clone(),
        });
        layout = next_layout;
        bound.push(t.binding.clone());
    }
    let final_layout = layout;

    // Pass 2: emit the nodes.
    let mut cur = first;
    for (k, sp) in steps.iter().enumerate() {
        let t = &p.tables[k + 1];
        let last = k == steps.len() - 1;
        // Binding provenance required by this step's predicates.
        let mut requires = vec![
            (0, crate::verify::Prop::MinDegree(alpha)),
            (1, crate::verify::Prop::MinDegree(alpha)),
        ];
        for pr in &sp.evaluable {
            for b in pr.bindings() {
                let slot = usize::from(b == t.binding);
                let prop = crate::verify::Prop::Binding(b.to_string());
                if !requires.iter().any(|(s, q)| *s == slot && *q == prop) {
                    requires.push((slot, prop));
                }
            }
        }
        let mut delivers: Vec<crate::verify::Prop> =
            sp.bound.iter().map(|b| crate::verify::Prop::Binding(b.clone())).collect();
        delivers.push(crate::verify::Prop::Binding(t.binding.clone()));
        delivers.push(crate::verify::Prop::MinDegree(alpha));
        // The step's sink, decided by its consumer: the last step streams
        // into the answer; a step feeding a merge step's sort boundary
        // pipelines in memory; anything else (partitioned or nested-loop
        // consumers re-scan by page) materializes a temp table.
        let sink = if last {
            SinkMode::Answer { select: p.select.clone() }
        } else if steps[k + 1].driver.is_some() && config.join_method == JoinMethod::Merge {
            SinkMode::Rows
        } else {
            SinkMode::Materialize
        };
        let residuals: Vec<PlanCompare> = match &sp.driver {
            Some((_, _, pos)) => sp
                .evaluable
                .iter()
                .enumerate()
                .filter(|(j, _)| j != pos)
                .map(|(_, pr)| pr.clone())
                .collect(),
            None => sp.evaluable.clone(),
        };
        cur = match (&sp.driver, config.join_method) {
            (Some((cur_col, next_col, _)), JoinMethod::Merge) => {
                let sort_left = push(
                    &mut ops,
                    &mut nodes,
                    sort::declared_properties_bound(cur, &sp.bound, cur_col, alpha),
                    Node::Sort { layout: sp.layout.clone(), col: cur_col.clone(), alpha },
                );
                let sort_right = push(
                    &mut ops,
                    &mut nodes,
                    sort::declared_properties_base(scans[k + 1], &t.binding, next_col, alpha),
                    Node::Sort { layout: Layout::of_table(t), col: next_col.clone(), alpha },
                );
                push(
                    &mut ops,
                    &mut nodes,
                    merge_join::declared_properties(
                        &t.binding,
                        vec![sort_left, sort_right],
                        requires,
                        delivers,
                        cur_col,
                        next_col,
                        alpha,
                    ),
                    Node::Join {
                        step: JoinStep {
                            method: StepMethod::Merge {
                                cur_col: cur_col.clone(),
                                next_col: next_col.clone(),
                            },
                            residuals,
                            layout: sp.layout.clone(),
                            next_layout: sp.next_layout.clone(),
                            alpha,
                            sink,
                        },
                    },
                )
            }
            (Some((cur_col, next_col, _)), JoinMethod::Partitioned) => push(
                &mut ops,
                &mut nodes,
                partitioned::declared_properties(
                    &t.binding,
                    vec![cur, scans[k + 1]],
                    requires,
                    delivers,
                ),
                Node::Join {
                    step: JoinStep {
                        method: StepMethod::Partitioned {
                            cur_col: cur_col.clone(),
                            next_col: next_col.clone(),
                        },
                        residuals,
                        layout: sp.layout.clone(),
                        next_layout: sp.next_layout.clone(),
                        alpha,
                        sink,
                    },
                },
            ),
            (None, _) => push(
                &mut ops,
                &mut nodes,
                block_nl::declared_properties(
                    &t.binding,
                    vec![cur, scans[k + 1]],
                    requires,
                    delivers,
                ),
                Node::Join {
                    step: JoinStep {
                        method: StepMethod::NestedLoop,
                        residuals,
                        layout: sp.layout.clone(),
                        next_layout: sp.next_layout.clone(),
                        alpha,
                        sink,
                    },
                },
            ),
        };
    }
    push(
        &mut ops,
        &mut nodes,
        output::declared_properties(cur, &p.select),
        Node::Output { layout: final_layout, select: p.select.clone(), threshold: p.threshold },
    );
    (ops, nodes)
}

/// Lowers a two-input (anti or aggregate) operator over `tables` (outer,
/// inner): a scan of each, a ⪯-sort of each side that has a `sorted`
/// column, the operator, and the output. `op` declares the operator over
/// its input slots and builds its node from the two tables, which are left
/// carrying the local predicates the operator evaluates inline.
fn lower_two_input(
    tables: [&PlanTable; 2],
    sorted: [Option<&PlanCol>; 2],
    strategy: Strategy,
    op: impl FnOnce([usize; 2], [PlanTable; 2]) -> (PhysOp, Node),
    select: &[PlanCol],
    threshold: Option<Threshold>,
) -> (Vec<PhysOp>, Vec<Node>) {
    let z = Degree::ZERO;
    let mut ops: Vec<PhysOp> = Vec::new();
    let mut nodes: Vec<Node> = Vec::new();
    let split = tables.map(|t| split_local(t, strategy));
    let scans = split.each_ref().map(|(scanned, _)| {
        push(
            &mut ops,
            &mut nodes,
            filter_scan::declared_properties(&scanned.binding, z),
            Node::Scan { table: scanned.clone(), min_degree: z },
        )
    });
    let mut inputs = scans;
    for (k, t) in tables.into_iter().enumerate() {
        if let Some(col) = sorted[k] {
            inputs[k] = push(
                &mut ops,
                &mut nodes,
                sort::declared_properties_base(scans[k], &t.binding, col, z),
                Node::Sort { layout: Layout::of_table(t), col: col.clone(), alpha: z },
            );
        }
    }
    let (declared, node) =
        op(inputs, split.map(|(scanned, inline)| PlanTable { local_preds: inline, ..scanned }));
    let root = push(&mut ops, &mut nodes, declared, node);
    push(
        &mut ops,
        &mut nodes,
        output::declared_properties(root, select),
        Node::Output { layout: Layout::of_table(tables[0]), select: select.to_vec(), threshold },
    );
    (ops, nodes)
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
    pub(crate) fn access(&self) -> Option<Access> {
        self.nodes.iter().find_map(|n| match n {
            Node::Anti { access, .. } | Node::Agg { access, .. } => Some(*access),
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
