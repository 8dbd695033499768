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

use crate::engine::Strategy;
use crate::exec::{agg, anti, block_nl, filter_scan, flat, merge_join, output, partitioned, sort};
use crate::exec::{ExecConfig, JoinMethod, Layout};
use crate::plan::{AggPlan, AntiPlan, FlatPlan, PlanCol, PlanCompare, PlanTable, UnnestPlan};
use crate::stats_histogram::StatsRegistry;
use crate::verify::{Outline, PhysOp};
use fuzzy_core::{CmpOp, Degree};
use fuzzy_rel::Catalog;
use fuzzy_sql::Threshold;

pub(crate) use crate::exec::agg::AggMode;
pub(crate) use crate::exec::anti::AntiMode;

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
        /// How the inputs are consumed.
        mode: AntiMode,
    },
    /// Nested aggregate evaluation.
    Agg {
        /// The aggregate plan.
        plan: AggPlan,
        /// How the inputs are consumed.
        mode: AggMode,
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
    let alpha = if strategy.is_baseline() {
        Degree::ZERO
    } else {
        crate::exec::pushdown_alpha(config, &plan)
    };
    let (ops, nodes) = match &plan {
        UnnestPlan::Flat(p) => lower_flat(p, strategy, config, alpha),
        UnnestPlan::Anti(p) => lower_anti(p, strategy),
        UnnestPlan::Agg(p) => lower_agg(p, strategy),
    };
    Lowered { plan, written_order, join_sizes, alpha, outline: Outline { ops }, nodes }
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

/// Emits the scans of an anti or aggregate operator's two tables and returns
/// their slots. Each table is left carrying the local predicates the
/// operator evaluates inline.
fn lower_scans(
    tables: [&mut PlanTable; 2],
    strategy: Strategy,
    ops: &mut Vec<PhysOp>,
    nodes: &mut Vec<Node>,
) -> [usize; 2] {
    tables.map(|t| {
        let (scanned, inline) = split_local(t, strategy);
        t.local_preds = inline;
        push(
            ops,
            nodes,
            filter_scan::declared_properties(&t.binding, Degree::ZERO),
            Node::Scan { table: scanned, min_degree: Degree::ZERO },
        )
    })
}

fn lower_anti(p: &AntiPlan, strategy: Strategy) -> (Vec<PhysOp>, Vec<Node>) {
    let z = Degree::ZERO;
    let mut ops: Vec<PhysOp> = Vec::new();
    let mut nodes: Vec<Node> = Vec::new();
    let mut op_plan = p.clone();
    let [scan_o, scan_i] =
        lower_scans([&mut op_plan.outer, &mut op_plan.inner], strategy, &mut ops, &mut nodes);
    let anti = match &p.window {
        _ if strategy.is_baseline() => push(
            &mut ops,
            &mut nodes,
            anti::declared_properties_unsorted("nested-loop-anti", p, scan_o, scan_i),
            Node::Anti { plan: op_plan, mode: AntiMode::NestedLoop },
        ),
        Some((ocol, icol)) => {
            let sort_o = push(
                &mut ops,
                &mut nodes,
                sort::declared_properties_base(scan_o, &p.outer.binding, ocol, z),
                Node::Sort { layout: Layout::of_table(&p.outer), col: ocol.clone(), alpha: z },
            );
            let sort_i = push(
                &mut ops,
                &mut nodes,
                sort::declared_properties_base(scan_i, &p.inner.binding, icol, z),
                Node::Sort { layout: Layout::of_table(&p.inner), col: icol.clone(), alpha: z },
            );
            push(
                &mut ops,
                &mut nodes,
                anti::declared_properties_merge(p, ocol, icol, sort_o, sort_i),
                Node::Anti { plan: op_plan, mode: AntiMode::Merge },
            )
        }
        None => push(
            &mut ops,
            &mut nodes,
            anti::declared_properties_unsorted("anti-scan", p, scan_o, scan_i),
            Node::Anti { plan: op_plan, mode: AntiMode::Scan },
        ),
    };
    push(
        &mut ops,
        &mut nodes,
        output::declared_properties(anti, &p.select),
        Node::Output {
            layout: Layout::of_table(&p.outer),
            select: p.select.clone(),
            threshold: p.threshold,
        },
    );
    (ops, nodes)
}

fn lower_agg(p: &AggPlan, strategy: Strategy) -> (Vec<PhysOp>, Vec<Node>) {
    let z = Degree::ZERO;
    let mut ops: Vec<PhysOp> = Vec::new();
    let mut nodes: Vec<Node> = Vec::new();
    let mut op_plan = p.clone();
    let [scan_o, scan_i] =
        lower_scans([&mut op_plan.outer, &mut op_plan.inner], strategy, &mut ops, &mut nodes);
    let agg_node = match &p.corr {
        _ if strategy.is_baseline() => push(
            &mut ops,
            &mut nodes,
            agg::declared_properties_unsorted("nested-loop-agg", p, scan_o, scan_i),
            Node::Agg { plan: op_plan, mode: AggMode::NestedLoop },
        ),
        None => push(
            &mut ops,
            &mut nodes,
            agg::declared_properties_unsorted("agg-const", p, scan_o, scan_i),
            Node::Agg { plan: op_plan, mode: AggMode::Const },
        ),
        Some((ucol, op2, vcol)) => {
            let sort_o = push(
                &mut ops,
                &mut nodes,
                sort::declared_properties_base(scan_o, &p.outer.binding, ucol, z),
                Node::Sort { layout: Layout::of_table(&p.outer), col: ucol.clone(), alpha: z },
            );
            if *op2 == CmpOp::Eq {
                // Pipelined merge grouping: both sides sorted, windowed.
                let sort_i = push(
                    &mut ops,
                    &mut nodes,
                    sort::declared_properties_base(scan_i, &p.inner.binding, vcol, z),
                    Node::Sort { layout: Layout::of_table(&p.inner), col: vcol.clone(), alpha: z },
                );
                push(
                    &mut ops,
                    &mut nodes,
                    agg::declared_properties_merge(p, ucol, vcol, sort_o, sort_i),
                    Node::Agg { plan: op_plan, mode: AggMode::Merge },
                )
            } else {
                // Non-equality correlation: outer sorted (distinct-U groups
                // adjacent for the cache), inner set scanned per group.
                push(
                    &mut ops,
                    &mut nodes,
                    agg::declared_properties_scan(p, ucol, sort_o, scan_i),
                    Node::Agg { plan: op_plan, mode: AggMode::Scan },
                )
            }
        }
    };
    push(
        &mut ops,
        &mut nodes,
        output::declared_properties(agg_node, &p.select),
        Node::Output {
            layout: Layout::of_table(&p.outer),
            select: p.select.clone(),
            threshold: p.threshold,
        },
    );
    (ops, nodes)
}

impl Lowered {
    /// The plan's shape label ([`UnnestPlan::label`]), with an anti plan
    /// tagged by the method its anti node runs.
    pub(crate) fn label(&self) -> String {
        let anti = self.nodes.iter().find_map(|n| match n {
            Node::Anti { mode, .. } => Some(*mode),
            _ => None,
        });
        match (&self.plan, anti) {
            (UnnestPlan::Anti(p), Some(mode)) => p.label(mode.name()),
            (plan, _) => plan.label(),
        }
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
