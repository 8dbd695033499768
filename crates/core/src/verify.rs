//! Static plan verification: physical-property analysis and
//! degree-preservation linting.
//!
//! The unnesting transformations (Sections 4–8) and the extended merge-join
//! (Section 3) are equivalent to the nested semantics only under
//! preconditions the executor otherwise assumes implicitly:
//!
//! * merge-join inputs must be ⪯-sorted (Definition 3.1's interval order, at
//!   the same α-cut the window scans) so that `Rng(r)` is one contiguous
//!   window — and the driving predicate must be an *exact* equality, because
//!   a similarity predicate's tolerance-widened matches are not bounded by
//!   support intersection;
//! * duplicate elimination must keep the **max** degree (fuzzy-OR), the
//!   projection semantics of Section 2;
//! * a pushed-down `WITH D > z` bound may only ever *tighten*: pruning at
//!   α > z can drop answer rows, and pruning inside the MIN-accumulating
//!   anti/aggregate forms is unsound at any α > 0 (low-degree pairs still
//!   lower group degrees);
//! * each rewrite must satisfy the shape preconditions of the equivalence
//!   theorem it is tagged with — inner-block independence for Theorem 4.1,
//!   adjacency of the linkage chain for Theorem 8.1, the single-correlation
//!   aggregate shape for Theorem 6.1, and so on.
//!
//! This module checks all of that **statically**, before a single tuple
//! flows. The lowering pass builds the physical operator tree the executor
//! will run under a strategy — including the optimizer's join reorder —
//! with every operator carrying its *required* and *delivered* properties
//! ([`Prop`]) as its [`Outline`] entry; the verifier walks that outline
//! checking required ⊆ delivered on every edge, then layers the plan-level
//! rewrite-rule and threshold checks on top. Violations are structured
//! diagnostics ([`Violation`]: rule id, operator path, expected vs.
//! delivered); [`verify_plan`] reports them and `EXPLAIN VERIFY` renders the
//! report. [`VerifiedPlan::new`] runs the same checks on the tree it lowers
//! and refuses a tree that fails them, so the executor, which drives only a
//! [`VerifiedPlan`], never sees an unverified tree;
//! [`crate::Engine::plan_for`] builds one for every plan it caches. The
//! naive fallback needs no outline: the naive evaluator *is* the semantics,
//! so there is nothing to check it against.
//!
//! Diagnostic rule ids (see DESIGN.md §10 for the paper mapping):
//!
//! | id | meaning |
//! |---|---|
//! | `V-PROP-SORT` | a required ⪯-sort order is not delivered |
//! | `V-PROP-DEGREE` | a required degree lower bound is not delivered |
//! | `V-PROP-BINDING` | a required binding's columns are not delivered |
//! | `V-DUP-MAX` | the plan root does not deduplicate with max |
//! | `V-OP-DECL` | an operator declared no properties at all |
//! | `V-OP-EDGE` | an operator input edge is missing or non-topological |
//! | `V-THRESH-WIDEN` | threshold push-down widens the `WITH D > z` bound |
//! | `V-THRESH-SCOPE` | a pruning bound inside an anti/aggregate form |
//! | `V-RULE-TAG` | the rewrite tag does not fit the plan family |
//! | `R-T4.1-INDEP` | type N tagged but the inner block is not independent |
//! | `R-T4.2-LINK` | type J/SOME tagged but the levels are not linked |
//! | `R-T5.1-ANTI` | the NOT IN anti form is malformed (Theorem 5.1) |
//! | `R-T6.1-AGG` | the aggregate correlation shape is wrong (Theorem 6.1) |
//! | `R-T7.1-ALL` | the ALL anti form is malformed (Theorem 7.1) |
//! | `R-T8.1-CHAIN` | the chain linkage is not adjacent (Theorem 8.1) |
//! | `R-S7-EXISTS` | the EXISTS flattening is not a two-relation join |

use crate::engine::Strategy;
use crate::error::{EngineError, Result};
use crate::exec::lower::{lower, Lowered};
use crate::exec::ExecConfig;
use crate::plan::{
    AggPlan, AntiKind, AntiPlan, FlatPlan, PlanCol, PlanCompare, RewriteRule, UnnestPlan,
};
use crate::stats_histogram::StatsRegistry;
use fuzzy_core::{CmpOp, Degree};
use fuzzy_sql::Threshold;

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// A physical property an operator requires from an input or delivers to its
/// consumer.
#[derive(Debug, Clone, PartialEq)]
pub enum Prop {
    /// The stream is ⪯-sorted (Definition 3.1's interval order) on `col` at
    /// the α-cut `alpha`. Orders at different α-cuts are *not* compatible —
    /// the cut changes the interval endpoints — so satisfaction is exact
    /// equality of both the column and the cut.
    Sorted {
        /// The sort column.
        col: PlanCol,
        /// The α-cut the intervals are taken at (0 = support order).
        alpha: Degree,
    },
    /// Every tuple degree in the stream is ≥ the bound (tuples below a
    /// pushed-down threshold have been pruned). A delivered bound `d`
    /// satisfies a required bound `r` iff `d >= r`.
    MinDegree(Degree),
    /// The stream carries the columns of this table binding (attribute
    /// provenance: predicates over the binding are evaluable).
    Binding(String),
    /// Duplicates are eliminated keeping the max degree (fuzzy-OR) — the
    /// projection semantics every plan root must deliver.
    DupMax,
}

impl Prop {
    /// Whether a delivered property satisfies this required one.
    pub fn satisfied_by(&self, delivered: &Prop) -> bool {
        match (self, delivered) {
            (Prop::Sorted { col, alpha }, Prop::Sorted { col: c, alpha: a }) => {
                col == c && alpha == a
            }
            (Prop::MinDegree(req), Prop::MinDegree(got)) => got >= req,
            (Prop::Binding(req), Prop::Binding(got)) => req == got,
            (Prop::DupMax, Prop::DupMax) => true,
            _ => false,
        }
    }

    /// The diagnostic rule id reported when this requirement is unmet.
    pub fn rule_id(&self) -> &'static str {
        match self {
            Prop::Sorted { .. } => "V-PROP-SORT",
            Prop::MinDegree(_) => "V-PROP-DEGREE",
            Prop::Binding(_) => "V-PROP-BINDING",
            Prop::DupMax => "V-DUP-MAX",
        }
    }
}

impl std::fmt::Display for Prop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Prop::Sorted { col, alpha } => write!(f, "sorted⪯({col}@{:.2})", alpha.value()),
            Prop::MinDegree(d) => write!(f, "deg≥{:.2}", d.value()),
            Prop::Binding(b) => write!(f, "cols({b})"),
            Prop::DupMax => f.write_str("dup-max"),
        }
    }
}

// ---------------------------------------------------------------------------
// Operators and outlines
// ---------------------------------------------------------------------------

/// One physical operator of a plan outline, with its property declaration.
/// Requirements name an input slot (an index into `inputs`) plus the
/// property that input's producer must deliver.
#[derive(Debug, Clone)]
pub struct PhysOp {
    /// Display name, mirroring the executor's operator labels.
    pub name: String,
    /// Producer operators, as indices into [`Outline::ops`] (must precede
    /// this operator — outlines are topologically ordered).
    pub inputs: Vec<usize>,
    /// `(input slot, property)` requirements.
    pub requires: Vec<(usize, Prop)>,
    /// Properties this operator's output stream delivers.
    pub delivers: Vec<Prop>,
    declared: bool,
}

impl PhysOp {
    /// An operator with a full property declaration.
    pub fn declare(
        name: impl Into<String>,
        inputs: Vec<usize>,
        requires: Vec<(usize, Prop)>,
        delivers: Vec<Prop>,
    ) -> PhysOp {
        PhysOp { name: name.into(), inputs, requires, delivers, declared: true }
    }

    /// An operator that declares nothing. The verifier rejects these
    /// (`V-OP-DECL`): a new physical operator must state its contract or it
    /// does not run.
    pub fn undeclared(name: impl Into<String>, inputs: Vec<usize>) -> PhysOp {
        PhysOp {
            name: name.into(),
            inputs,
            requires: Vec::new(),
            delivers: Vec::new(),
            declared: false,
        }
    }

    /// Whether the operator declared its properties.
    pub fn is_declared(&self) -> bool {
        self.declared
    }
}

/// The physical operator tree of a plan, in topological (execution) order;
/// the last operator is the plan root (the answer producer).
#[derive(Debug, Clone, Default)]
pub struct Outline {
    /// The operators; edge targets in [`PhysOp::inputs`] index this list.
    pub ops: Vec<PhysOp>,
}

impl Outline {
    /// Checks required ⊆ delivered on every edge, that every operator
    /// declared properties, that edges are topological, and that the root
    /// deduplicates with max. Returns `(checks performed, violations)`.
    pub fn check(&self) -> (usize, Vec<Violation>) {
        let mut checks = 0usize;
        let mut out = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let path = format!("#{i} {}", op.name);
            checks += 1;
            if !op.declared {
                out.push(Violation {
                    rule: "V-OP-DECL",
                    path,
                    expected: "a required/delivered property declaration".into(),
                    delivered: "none (operator declares no properties)".into(),
                });
                continue;
            }
            for (slot, req) in &op.requires {
                checks += 1;
                match op.inputs.get(*slot).copied() {
                    Some(src) if src < i => {
                        let producer = &self.ops[src];
                        if !producer.delivers.iter().any(|d| req.satisfied_by(d)) {
                            out.push(Violation {
                                rule: req.rule_id(),
                                path: path.clone(),
                                expected: req.to_string(),
                                delivered: format!(
                                    "input #{src} {} delivers {}",
                                    producer.name,
                                    render_props(&producer.delivers)
                                ),
                            });
                        }
                    }
                    _ => out.push(Violation {
                        rule: "V-OP-EDGE",
                        path: path.clone(),
                        expected: format!("input slot {slot} wired to an earlier operator"),
                        delivered: "missing or non-topological edge".into(),
                    }),
                }
            }
        }
        // The plan root must deliver fuzzy-OR duplicate elimination.
        if let Some((i, root)) = self.ops.iter().enumerate().next_back() {
            if root.declared {
                checks += 1;
                if !root.delivers.iter().any(|p| matches!(p, Prop::DupMax)) {
                    out.push(Violation {
                        rule: "V-DUP-MAX",
                        path: format!("#{i} {}", root.name),
                        expected: "dup-max (fuzzy-OR duplicate elimination) at the plan root"
                            .into(),
                        delivered: render_props(&root.delivers),
                    });
                }
            }
        }
        (checks, out)
    }
}

/// Renders a delivered-property list for diagnostics.
fn render_props(props: &[Prop]) -> String {
    if props.is_empty() {
        "nothing".to_string()
    } else {
        props.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(", ")
    }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// One verification failure: which rule, where in the plan, and the expected
/// vs. delivered contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The diagnostic rule id (see the module table).
    pub rule: &'static str,
    /// The operator path (`#3 merge-join +S`) or plan region (`select`).
    pub path: String,
    /// What the rule requires.
    pub expected: String,
    /// What the plan delivers instead.
    pub delivered: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] at {}: expected {}; delivered {}",
            self.rule, self.path, self.expected, self.delivered
        )
    }
}

/// The result of verifying one plan.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The plan's shape label, with an anti plan tagged by the method its
    /// anti operator runs (what the `strategy:` line prints).
    pub plan_label: String,
    /// The paper rule id of the rewrite that produced the plan.
    pub rule_id: &'static str,
    /// The push-down pruning bound the executor will use.
    pub alpha: Degree,
    /// The physical operator outline that was checked.
    pub outline: Outline,
    /// How many individual checks ran.
    pub checks: usize,
    /// All violations found (empty = the plan verifies).
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// True iff the plan verified cleanly.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Builds a report from a hand-built outline (used by tests and the
    /// injected-failure golden rendering; production reports come from
    /// [`verify_plan`]).
    pub fn from_outline(
        plan_label: impl Into<String>,
        rule_id: &'static str,
        alpha: Degree,
        outline: Outline,
    ) -> VerifyReport {
        let (checks, violations) = outline.check();
        VerifyReport { plan_label: plan_label.into(), rule_id, alpha, outline, checks, violations }
    }
}

// ---------------------------------------------------------------------------
// Plan-level checks
// ---------------------------------------------------------------------------

/// A plan lowered to its strategy's operator tree, with that tree verified:
/// the only form [`crate::Executor::run`] drives, and what the plan cache
/// holds. The one way to build it is [`VerifiedPlan::new`], which lowers and
/// then verifies, so the tree that runs is the tree that was verified by
/// construction.
pub struct VerifiedPlan {
    lowered: Lowered,
    label: String,
}

impl VerifiedPlan {
    /// Lowers `plan` to the operator tree `strategy` runs under `config`
    /// (join reorder by `stats` included) and verifies that tree, failing
    /// with [`EngineError::Verify`] on the first violation.
    pub fn new(
        plan: &UnnestPlan,
        strategy: Strategy,
        config: &ExecConfig,
        stats: Option<&StatsRegistry>,
    ) -> Result<VerifiedPlan> {
        let lowered = lower(plan, strategy, config, stats);
        let (_, violations) = check_lowered(&lowered);
        if let Some(v) = violations.first() {
            return Err(EngineError::Verify(format!(
                "{v} ({} violation(s) in plan {})",
                violations.len(),
                lowered.label()
            )));
        }
        Ok(VerifiedPlan { label: format!("{}:{}", strategy.name(), lowered.label()), lowered })
    }

    /// `strategy:plan` — the outcome's `plan_label`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The verified operator tree.
    pub(crate) fn lowered(&self) -> &Lowered {
        &self.lowered
    }
}

impl std::fmt::Debug for VerifiedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiedPlan").field("label", &self.label).finish_non_exhaustive()
    }
}

/// Verifies a plan under a strategy and reports every finding: the
/// rewrite-rule preconditions, threshold soundness, and the per-edge
/// property analysis of the operator tree [`VerifiedPlan::new`] would build
/// for that strategy (join reorder included). The report's `outline` is that
/// operator tree. `EXPLAIN VERIFY` renders it.
pub fn verify_plan(
    plan: &UnnestPlan,
    strategy: Strategy,
    config: &ExecConfig,
    stats: Option<&StatsRegistry>,
) -> VerifyReport {
    let lowered = lower(plan, strategy, config, stats);
    let (checks, violations) = check_lowered(&lowered);
    let plan_label = lowered.label();
    let Lowered { plan, alpha, outline, .. } = lowered;
    VerifyReport { plan_label, rule_id: plan.rule().id(), alpha, outline, checks, violations }
}

/// Runs every check on a lowered tree: the rewrite rule, the threshold
/// bound and its scope, then the outline's edges. Returns the number of
/// checks and the violations found.
fn check_lowered(lowered: &Lowered) -> (usize, Vec<Violation>) {
    let Lowered { plan, alpha, outline, .. } = lowered;
    let mut violations = Vec::new();
    let mut checks = check_rewrite(plan, &mut violations);
    checks += 1;
    if let Some(v) = check_threshold(plan.threshold(), *alpha) {
        violations.push(v);
    }
    checks += 1;
    if alpha.is_positive() && !matches!(plan, UnnestPlan::Flat(_)) {
        // MIN over negated degrees: a low-degree pair still lowers its
        // group's degree, so pruning inside anti/agg loses answers.
        violations.push(Violation {
            rule: "V-THRESH-SCOPE",
            path: "plan".into(),
            expected: "no pruning bound inside the MIN-accumulating anti/aggregate forms".into(),
            delivered: format!("α = {:.2}", alpha.value()),
        });
    }
    let (outline_checks, mut outline_violations) = outline.check();
    checks += outline_checks;
    violations.append(&mut outline_violations);
    (checks, violations)
}

/// Checks that a push-down bound only ever tightens the `WITH D > z`
/// threshold: `α ≤ z`, and no bound at all without a threshold. A violation
/// is `V-THRESH-WIDEN`.
pub fn check_threshold(threshold: Option<Threshold>, alpha: Degree) -> Option<Violation> {
    if !alpha.is_positive() {
        return None;
    }
    match threshold {
        Some(t) if alpha.value() <= t.z => None,
        Some(t) => Some(Violation {
            rule: "V-THRESH-WIDEN",
            path: "output".into(),
            expected: format!("push-down bound α ≤ z = {:.2}", t.z),
            delivered: format!("α = {:.2}", alpha.value()),
        }),
        None => Some(Violation {
            rule: "V-THRESH-WIDEN",
            path: "output".into(),
            expected: "no push-down bound without a WITH threshold".into(),
            delivered: format!("α = {:.2}", alpha.value()),
        }),
    }
}

fn check_rewrite(plan: &UnnestPlan, out: &mut Vec<Violation>) -> usize {
    match plan {
        UnnestPlan::Flat(p) => check_flat_rule(p, out),
        UnnestPlan::Anti(p) => check_anti_rule(p, out),
        UnnestPlan::Agg(p) => check_agg_rule(p, out),
    }
}

/// How strictly a flat rule constrains cross-level predicates.
enum LevelCheck {
    /// Theorem 4.1: exactly one cross-level predicate, the linkage equality.
    Independent,
    /// Theorem 4.2 (J and SOME): at least one cross-level predicate.
    Linked,
    /// Theorem 8.1: every adjacent pair equality-linked. Extra correlation
    /// predicates reaching a non-adjacent enclosing level are allowed — the
    /// classifier's chain shape admits correlation to *any* enclosing block;
    /// the rewrite only needs the linear linkage to exist.
    Adjacent,
}

fn check_flat_rule(p: &FlatPlan, out: &mut Vec<Violation>) -> usize {
    let mut checks = 1usize;
    match &p.rule {
        RewriteRule::Flat => {}
        RewriteRule::Exists => {
            if p.tables.len() != 2 {
                out.push(Violation {
                    rule: "R-S7-EXISTS",
                    path: "plan".into(),
                    expected: "one outer and one inner relation".into(),
                    delivered: format!("{} tables", p.tables.len()),
                });
            }
        }
        RewriteRule::TypeN { blocks } => {
            checks += check_levels(p, blocks, LevelCheck::Independent, "R-T4.1-INDEP", out);
        }
        RewriteRule::TypeJ { blocks } | RewriteRule::TypeSome { blocks } => {
            checks += check_levels(p, blocks, LevelCheck::Linked, "R-T4.2-LINK", out);
        }
        RewriteRule::Chain { blocks } => {
            checks += check_levels(p, blocks, LevelCheck::Adjacent, "R-T8.1-CHAIN", out);
        }
        other => out.push(Violation {
            rule: "V-RULE-TAG",
            path: "plan".into(),
            expected: "a flat-form rule (none, T4.1, T4.2, T4.2-SOME, T8.1, S7-EXISTS)".into(),
            delivered: other.id().into(),
        }),
    }
    checks
}

/// The nesting level of a binding under a rule's block lists.
fn level_of(blocks: &[Vec<String>], binding: &str) -> Option<usize> {
    blocks.iter().position(|level| level.iter().any(|b| b == binding))
}

fn check_levels(
    p: &FlatPlan,
    blocks: &[Vec<String>],
    mode: LevelCheck,
    id: &'static str,
    out: &mut Vec<Violation>,
) -> usize {
    let mut checks = 0usize;
    // Every plan table must belong to a nesting level.
    for t in &p.tables {
        checks += 1;
        if level_of(blocks, &t.binding).is_none() {
            out.push(Violation {
                rule: id,
                path: format!("table {}", t.binding),
                expected: "every relation assigned to a nesting level".into(),
                delivered: format!("binding {} is in no level of the rule tag", t.binding),
            });
        }
    }
    // Classify each cross-table predicate by the levels it spans.
    let pairs = blocks.len().saturating_sub(1);
    let mut cross_per_pair = vec![0usize; pairs];
    let mut eq_link_per_pair = vec![0usize; pairs];
    let mut cross_total = 0usize;
    let mut cross_eq = 0usize;
    for pred in &p.join_preds {
        checks += 1;
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for b in pred.bindings() {
            match level_of(blocks, b) {
                Some(l) => {
                    lo = lo.min(l);
                    hi = hi.max(l);
                }
                None => {
                    out.push(Violation {
                        rule: id,
                        path: format!("predicate {pred}"),
                        expected: "predicate bindings drawn from the rule's levels".into(),
                        delivered: format!("binding {b} is in no level"),
                    });
                }
            }
        }
        if lo >= hi {
            continue; // intra-level predicate: always allowed
        }
        cross_total += 1;
        let exact_eq = pred.op == CmpOp::Eq && pred.tolerance.is_none();
        if exact_eq {
            cross_eq += 1;
        }
        if hi - lo >= 2 {
            // A predicate skipping levels is only illegal where the rule
            // demands an independent inner block; chains admit correlation
            // to any enclosing level.
            if matches!(mode, LevelCheck::Independent) {
                out.push(Violation {
                    rule: id,
                    path: format!("predicate {pred}"),
                    expected: "an independent inner block (no level-skipping correlation)".into(),
                    delivered: format!("spans levels {lo}..{hi}"),
                });
            }
        } else {
            cross_per_pair[lo] += 1;
            if exact_eq {
                eq_link_per_pair[lo] += 1;
            }
        }
    }
    match mode {
        LevelCheck::Independent => {
            checks += 1;
            if cross_total != 1 || cross_eq != 1 {
                out.push(Violation {
                    rule: id,
                    path: "plan".into(),
                    expected: "an independent inner block: exactly one cross-level predicate, \
                               the IN linkage equality"
                        .into(),
                    delivered: format!(
                        "{cross_total} cross-level predicates ({cross_eq} exact equalities)"
                    ),
                });
            }
        }
        LevelCheck::Linked => {
            checks += 1;
            if cross_total == 0 {
                out.push(Violation {
                    rule: id,
                    path: "plan".into(),
                    expected: "at least one predicate linking the nesting levels".into(),
                    delivered: "no cross-level predicates".into(),
                });
            }
        }
        LevelCheck::Adjacent => {
            for (i, links) in eq_link_per_pair.iter().enumerate() {
                checks += 1;
                if *links == 0 {
                    out.push(Violation {
                        rule: id,
                        path: format!("levels {i}..{}", i + 1),
                        expected: "an exact-equality linkage between every adjacent level pair"
                            .into(),
                        delivered: format!(
                            "{} cross-level predicates, none an exact equality",
                            cross_per_pair[i]
                        ),
                    });
                }
            }
        }
    }
    checks
}

fn check_anti_rule(p: &AntiPlan, out: &mut Vec<Violation>) -> usize {
    let mut checks = 1usize;
    let (expected_rule, id) = match p.kind {
        AntiKind::Exclusion => (RewriteRule::Exclusion, "R-T5.1-ANTI"),
        AntiKind::All { .. } => (RewriteRule::All, "R-T7.1-ALL"),
    };
    if p.rule != expected_rule {
        out.push(Violation {
            rule: "V-RULE-TAG",
            path: "plan".into(),
            expected: format!("rule {} for this anti form", expected_rule.id()),
            delivered: p.rule.id().into(),
        });
    }
    // The negated conjunction may reference the two relations only.
    for pred in &p.pair_preds {
        checks += 1;
        if pred.bindings().iter().any(|b| *b != p.outer.binding && *b != p.inner.binding) {
            out.push(Violation {
                rule: id,
                path: format!("predicate {pred}"),
                expected: "references to the outer/inner bindings only".into(),
                delivered: pred.to_string(),
            });
        }
    }
    // A merge window must be an outer/inner exact equality from the negated
    // conjunction: similarity predicates widen matching past support
    // intersection, so window-scanning them is unsound.
    checks += 1;
    if let Some((o, i)) = &p.window {
        let backed = o.binding == p.outer.binding
            && i.binding == p.inner.binding
            && p.pair_preds.iter().any(|pr| window_backed(pr, o, i));
        if !backed {
            out.push(Violation {
                rule: id,
                path: "window".into(),
                expected: "a merge window on an outer/inner exact equality of the negated \
                           conjunction"
                    .into(),
                delivered: format!("{o} = {i}"),
            });
        }
    }
    if let AntiKind::All { lhs, rhs, .. } = &p.kind {
        checks += 1;
        let lhs_ok = lhs.as_col().map(|c| c.binding == p.outer.binding).unwrap_or(true);
        let rhs_ok = rhs.as_col().map(|c| c.binding == p.inner.binding).unwrap_or(false);
        if !lhs_ok || !rhs_ok {
            out.push(Violation {
                rule: "R-T7.1-ALL",
                path: "quantified comparison".into(),
                expected: "R.Y op ALL(S.Z): outer lhs, inner rhs".into(),
                delivered: format!("{lhs} op {rhs}"),
            });
        }
    }
    checks += 1;
    if p.select.iter().any(|c| c.binding != p.outer.binding) {
        out.push(Violation {
            rule: id,
            path: "select".into(),
            expected: "projection over the outer relation only".into(),
            delivered: render_cols(&p.select),
        });
    }
    checks
}

/// True iff the predicate is the exact equality `(o, i)` (either
/// orientation) that licenses the anti/agg merge window.
fn window_backed(pred: &PlanCompare, o: &PlanCol, i: &PlanCol) -> bool {
    if pred.op != CmpOp::Eq || pred.tolerance.is_some() {
        return false;
    }
    match (pred.lhs.as_col(), pred.rhs.as_col()) {
        (Some(l), Some(r)) => (l == o && r == i) || (l == i && r == o),
        _ => false,
    }
}

fn check_agg_rule(p: &AggPlan, out: &mut Vec<Violation>) -> usize {
    let checks = 5usize;
    if p.rule != RewriteRule::Aggregate {
        out.push(Violation {
            rule: "V-RULE-TAG",
            path: "plan".into(),
            expected: "rule T6.1 for the aggregate form".into(),
            delivered: p.rule.id().into(),
        });
    }
    if p.agg.1.binding != p.inner.binding {
        out.push(Violation {
            rule: "R-T6.1-AGG",
            path: "aggregate".into(),
            expected: "the aggregate input drawn from the inner relation".into(),
            delivered: p.agg.1.to_string(),
        });
    }
    if let Some((u, _, v)) = &p.corr {
        if u.binding != p.outer.binding || v.binding != p.inner.binding {
            out.push(Violation {
                rule: "R-T6.1-AGG",
                path: "correlation".into(),
                expected: "the single correlation S.V op₂ R.U linking inner to outer".into(),
                delivered: format!("{v} op {u}"),
            });
        }
    }
    if let Some(c) = p.compare.0.as_col() {
        if c.binding != p.outer.binding {
            out.push(Violation {
                rule: "R-T6.1-AGG",
                path: "comparison".into(),
                expected: "the compared operand R.Y drawn from the outer relation".into(),
                delivered: c.to_string(),
            });
        }
    }
    if p.select.iter().any(|c| c.binding != p.outer.binding) {
        out.push(Violation {
            rule: "R-T6.1-AGG",
            path: "select".into(),
            expected: "projection over the outer relation only".into(),
            delivered: render_cols(&p.select),
        });
    }
    checks
}

fn render_cols(cols: &[PlanCol]) -> String {
    cols.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanOperand, PlanTable};
    use fuzzy_rel::{AttrType, Schema, StoredTable};
    use fuzzy_storage::SimDisk;

    fn col(b: &str, attr: usize) -> PlanCol {
        PlanCol { binding: b.into(), attr }
    }

    fn push(ops: &mut Vec<PhysOp>, op: PhysOp) -> usize {
        ops.push(op);
        ops.len() - 1
    }

    fn cmp(l: PlanCol, op: CmpOp, r: PlanCol) -> PlanCompare {
        PlanCompare::new(PlanOperand::Col(l), op, PlanOperand::Col(r))
    }

    fn table(disk: &SimDisk, binding: &str) -> PlanTable {
        let schema = Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number)]);
        let t = StoredTable::create(disk, format!("t_{binding}"), schema);
        PlanTable { binding: binding.into(), table: t, local_preds: Vec::new() }
    }

    fn flat_two(disk: &SimDisk, rule: RewriteRule, preds: Vec<PlanCompare>) -> FlatPlan {
        FlatPlan {
            tables: vec![table(disk, "R"), table(disk, "S")],
            join_preds: preds,
            select: vec![col("R", 0)],
            threshold: None,
            rule,
        }
    }

    #[test]
    fn prop_satisfaction() {
        let s = Prop::Sorted { col: col("R", 1), alpha: Degree::ZERO };
        assert!(s.satisfied_by(&Prop::Sorted { col: col("R", 1), alpha: Degree::ZERO }));
        // A sort at a different α-cut is a different order.
        assert!(!s.satisfied_by(&Prop::Sorted { col: col("R", 1), alpha: Degree::ONE }));
        assert!(!s.satisfied_by(&Prop::Sorted { col: col("R", 2), alpha: Degree::ZERO }));
        // Degree bounds satisfy downward.
        let need = Prop::MinDegree(Degree::clamped(0.3));
        assert!(need.satisfied_by(&Prop::MinDegree(Degree::clamped(0.5))));
        assert!(!need.satisfied_by(&Prop::MinDegree(Degree::ZERO)));
        assert!(!need.satisfied_by(&Prop::DupMax));
    }

    #[test]
    fn unsorted_merge_input_is_rejected() {
        // A merge-join wired straight to unsorted scans must fail with
        // V-PROP-SORT on both inputs.
        let mut ops = Vec::new();
        let r = push(
            &mut ops,
            PhysOp::declare(
                "scan R",
                vec![],
                vec![],
                vec![Prop::Binding("R".into()), Prop::MinDegree(Degree::ZERO)],
            ),
        );
        let s = push(
            &mut ops,
            PhysOp::declare(
                "scan S",
                vec![],
                vec![],
                vec![Prop::Binding("S".into()), Prop::MinDegree(Degree::ZERO)],
            ),
        );
        push(
            &mut ops,
            PhysOp::declare(
                "merge-join +S",
                vec![r, s],
                vec![
                    (0, Prop::Sorted { col: col("R", 1), alpha: Degree::ZERO }),
                    (1, Prop::Sorted { col: col("S", 1), alpha: Degree::ZERO }),
                ],
                vec![Prop::Binding("R".into()), Prop::Binding("S".into()), Prop::DupMax],
            ),
        );
        let (_, violations) = Outline { ops }.check();
        let sorts: Vec<_> = violations.iter().filter(|v| v.rule == "V-PROP-SORT").collect();
        assert_eq!(sorts.len(), 2, "{violations:?}");
    }

    #[test]
    fn undeclared_operator_is_rejected() {
        let mut ops = Vec::new();
        push(&mut ops, PhysOp::undeclared("mystery-op", vec![]));
        let (_, violations) = Outline { ops }.check();
        assert!(violations.iter().any(|v| v.rule == "V-OP-DECL"), "{violations:?}");
        assert!(!PhysOp::undeclared("x", vec![]).is_declared());
    }

    #[test]
    fn root_without_dedup_is_rejected() {
        let mut ops = Vec::new();
        push(&mut ops, PhysOp::declare("scan R", vec![], vec![], vec![Prop::Binding("R".into())]));
        let (_, violations) = Outline { ops }.check();
        assert!(violations.iter().any(|v| v.rule == "V-DUP-MAX"), "{violations:?}");
    }

    #[test]
    fn widened_threshold_is_rejected() {
        // α above z widens the answer bound.
        let t = Threshold { z: 0.3, strict: true };
        let v = check_threshold(Some(t), Degree::clamped(0.5));
        assert_eq!(v.map(|v| v.rule), Some("V-THRESH-WIDEN"));
        // A bound with no threshold at all is also a widening.
        let v = check_threshold(None, Degree::clamped(0.1));
        assert_eq!(v.map(|v| v.rule), Some("V-THRESH-WIDEN"));
        // Tightening (α ≤ z) and no-op bounds are fine.
        assert!(check_threshold(Some(t), Degree::clamped(0.3)).is_none());
        assert!(check_threshold(None, Degree::ZERO).is_none());
    }

    #[test]
    fn mistagged_type_n_with_correlated_inner_is_rejected() {
        // Tagged N (independent inner block) but carrying a second
        // cross-level predicate — the correlation that makes it type J.
        let disk = SimDisk::with_default_page_size();
        let plan = flat_two(
            &disk,
            RewriteRule::TypeN { blocks: vec![vec!["R".into()], vec!["S".into()]] },
            vec![
                cmp(col("R", 1), CmpOp::Eq, col("S", 1)),
                cmp(col("R", 0), CmpOp::Eq, col("S", 0)),
            ],
        );
        let report =
            verify_plan(&UnnestPlan::Flat(plan), Strategy::Unnest, &ExecConfig::default(), None);
        assert!(
            report.violations.iter().any(|v| v.rule == "R-T4.1-INDEP"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn correctly_tagged_plans_verify() {
        let disk = SimDisk::with_default_page_size();
        let n = flat_two(
            &disk,
            RewriteRule::TypeN { blocks: vec![vec!["R".into()], vec!["S".into()]] },
            vec![cmp(col("R", 1), CmpOp::Eq, col("S", 1))],
        );
        let report =
            verify_plan(&UnnestPlan::Flat(n), Strategy::Unnest, &ExecConfig::default(), None);
        assert!(report.ok(), "{:?}", report.violations);
        let j = flat_two(
            &disk,
            RewriteRule::TypeJ { blocks: vec![vec!["R".into()], vec!["S".into()]] },
            vec![
                cmp(col("R", 1), CmpOp::Eq, col("S", 1)),
                cmp(col("R", 0), CmpOp::Eq, col("S", 0)),
            ],
        );
        let report =
            verify_plan(&UnnestPlan::Flat(j), Strategy::Unnest, &ExecConfig::default(), None);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn similarity_predicate_is_not_a_driver() {
        // A flat join whose only cross predicate is a similarity: the
        // outline must fall back to a nested loop, never a merge driven by
        // the tolerance-widened predicate.
        let disk = SimDisk::with_default_page_size();
        let mut pred = cmp(col("R", 1), CmpOp::Eq, col("S", 1));
        pred.tolerance = Some(5.0);
        let plan = flat_two(&disk, RewriteRule::Flat, vec![pred]);
        let outline =
            verify_plan(&UnnestPlan::Flat(plan), Strategy::Unnest, &ExecConfig::default(), None)
                .outline;
        assert!(outline.ops.iter().any(|o| o.name.starts_with("nested-loop")));
        assert!(!outline.ops.iter().any(|o| o.name.starts_with("merge-join")));
    }

    #[test]
    fn type_j_without_linkage_is_rejected() {
        let disk = SimDisk::with_default_page_size();
        let plan = flat_two(
            &disk,
            RewriteRule::TypeJ { blocks: vec![vec!["R".into()], vec!["S".into()]] },
            vec![],
        );
        let report =
            verify_plan(&UnnestPlan::Flat(plan), Strategy::Unnest, &ExecConfig::default(), None);
        assert!(report.violations.iter().any(|v| v.rule == "R-T4.2-LINK"));
    }

    #[test]
    fn anti_rule_on_flat_plan_is_a_tag_mismatch() {
        let disk = SimDisk::with_default_page_size();
        let plan = flat_two(&disk, RewriteRule::Exclusion, vec![]);
        let report =
            verify_plan(&UnnestPlan::Flat(plan), Strategy::Unnest, &ExecConfig::default(), None);
        assert!(report.violations.iter().any(|v| v.rule == "V-RULE-TAG"));
    }
}
