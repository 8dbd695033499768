//! Logical plans for unnested queries.
//!
//! The unnesting transformations of Sections 4–8 rewrite a nested query into
//! a flat form over the participating relations. We represent those flat
//! forms directly as plans rather than SQL text:
//!
//! * [`FlatPlan`] — a flat select-project-join: Query N′/J′ (Theorems
//!   4.1/4.2), the `SOME` variant, and the K-way chain query Q′_K
//!   (Theorem 8.1);
//! * [`AntiPlan`] — the grouped `MIN(D)` queries JX′ and JALL′ over negated
//!   predicate degrees (Theorems 5.1 and 7.1); grouping by the outer key is
//!   implicit because the outer relation is streamed tuple-at-a-time;
//! * [`AggPlan`] — the T1/T2/JA′ (or COUNT′ with its left outer join and
//!   IF-THEN-ELSE branch) pipeline of Theorem 6.1.
//!
//! Plans reference columns as `(binding, attribute index)`; physical
//! executors map them onto concatenated tuple layouts.

use crate::error::{EngineError, Result};
use crate::exec::lower::Access;
use crate::unnest::lookup_table;
use fuzzy_core::{CmpOp, Degree, Value};
use fuzzy_rel::{Catalog, Schema, StoredTable};
use fuzzy_sql::{AggFunc, Threshold};

/// A column of a plan: a table binding plus an attribute index within it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCol {
    /// The FROM binding name (alias or table name).
    pub binding: String,
    /// The attribute position within that table's schema.
    pub attr: usize,
}

/// An operand of a plan predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOperand {
    /// A column.
    Col(PlanCol),
    /// A constant (numbers, text, resolved linguistic terms).
    Const(Value),
}

impl PlanOperand {
    /// The column, if this operand is one.
    pub fn as_col(&self) -> Option<&PlanCol> {
        match self {
            PlanOperand::Col(c) => Some(c),
            PlanOperand::Const(_) => None,
        }
    }
}

/// A simple comparison predicate of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCompare {
    /// Left operand.
    pub lhs: PlanOperand,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: PlanOperand,
    /// For `X ~ Y WITHIN t` similarity predicates: the tolerance. When set,
    /// `op` is `Eq` and evaluation uses the similarity relation instead of
    /// plain possibility of equality.
    pub tolerance: Option<f64>,
}

impl PlanCompare {
    /// A plain (non-similarity) comparison.
    pub fn new(lhs: PlanOperand, op: CmpOp, rhs: PlanOperand) -> PlanCompare {
        PlanCompare { lhs, op, rhs, tolerance: None }
    }

    /// The bindings this predicate references.
    pub fn bindings(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for o in [&self.lhs, &self.rhs] {
            if let PlanOperand::Col(c) = o {
                out.push(c.binding.as_str());
            }
        }
        out
    }

    /// True iff this is an exact equality: `=` with no similarity tolerance,
    /// the only comparison that may drive a merge window (a similarity's
    /// widened intersection criterion is not the window's).
    pub fn is_exact_eq(&self) -> bool {
        self.op == CmpOp::Eq && self.tolerance.is_none()
    }

    /// True iff this is an exact equality between two columns of the two
    /// given bindings (in either orientation): the optimizer's join-graph
    /// edge.
    pub fn is_equi_between(&self, a: &str, b: &str) -> bool {
        if !self.is_exact_eq() {
            return false;
        }
        match (self.lhs.as_col(), self.rhs.as_col()) {
            (Some(l), Some(r)) => {
                (l.binding == a && r.binding == b) || (l.binding == b && r.binding == a)
            }
            _ => false,
        }
    }
}

/// One base relation of a plan with the predicates local to it.
///
/// The relation is named, not held: a plan carries no file handle, so a
/// cached plan stays valid while writes change the table's data. The
/// executor binds the name through the statement's catalog snapshot when
/// the plan runs.
#[derive(Debug, Clone)]
pub struct PlanTable {
    /// Binding name used by plan columns.
    pub binding: String,
    /// The catalog name of the stored relation.
    pub name: String,
    /// The relation's schema when the plan was built.
    pub schema: Schema,
    /// Single-table predicates (the paper's p_i), folded into tuple degrees
    /// during the initial filtering scan.
    pub local_preds: Vec<PlanCompare>,
}

impl PlanTable {
    /// A plan table for `table` under `binding`, with no local predicates.
    pub fn new(binding: impl Into<String>, table: &StoredTable) -> PlanTable {
        PlanTable {
            binding: binding.into(),
            name: table.name().to_string(),
            schema: table.schema().clone(),
            local_preds: Vec::new(),
        }
    }

    /// The stored relation this plan table names in `catalog`, the
    /// statement's snapshot. A table that is gone, or whose schema is no
    /// longer the one the plan was built on, is a bind error.
    pub fn stored<'c>(&self, catalog: &'c Catalog) -> Result<&'c StoredTable> {
        let stored = lookup_table(catalog, &self.name)?;
        if stored.schema() != &self.schema {
            return Err(EngineError::Bind(format!(
                "table {:?} changed schema since the plan was built",
                self.name
            )));
        }
        Ok(stored)
    }
}

/// The paper equivalence rule that justifies an unnested plan.
///
/// Every plan the transformer emits is tagged with the rule that produced
/// it; the static verifier ([`crate::verify`]) re-checks the rule's shape
/// preconditions against the plan itself, so a mis-tagged plan (or a future
/// transformer bug) is rejected before execution rather than silently
/// computing wrong degrees. The flat-form rules carry `blocks`: the binding
/// names of each nesting level, outermost first, which is what the
/// cross-level predicate checks (independence, adjacency) are phrased over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteRule {
    /// No rewrite — the user query was already flat.
    Flat,
    /// Theorem 4.1 (Query N′): uncorrelated `IN`. Precondition: the inner
    /// block is independent — exactly one cross-level predicate, the `IN`
    /// linkage equality itself.
    TypeN {
        /// Binding names per nesting level, outermost first.
        blocks: Vec<Vec<String>>,
    },
    /// Theorem 4.2 (Query J′): correlated `IN`. Precondition: at least one
    /// cross-level predicate links the two levels.
    TypeJ {
        /// Binding names per nesting level, outermost first.
        blocks: Vec<Vec<String>>,
    },
    /// The `θ SOME` variant of Theorem 4.2 (the linkage carries θ, not
    /// necessarily equality).
    TypeSome {
        /// Binding names per nesting level, outermost first.
        blocks: Vec<Vec<String>>,
    },
    /// Theorem 8.1 (Query Q′_K): a K-level `IN` chain. Precondition: every
    /// adjacent level pair is linked by at least one equality, and no
    /// predicate skips levels (correlation may reference enclosing blocks,
    /// but the linkage structure itself must be linear).
    Chain {
        /// Binding names per nesting level, outermost first.
        blocks: Vec<Vec<String>>,
    },
    /// Section 7's remark: `EXISTS` flattens to a correlation join with
    /// fuzzy-OR duplicate elimination playing the max.
    Exists,
    /// Theorem 5.1 (Queries NX′/JX′): `NOT IN` / `NOT EXISTS` as a grouped
    /// MIN over negated degrees.
    Exclusion,
    /// Theorem 7.1 (Queries ALL′/JALL′): the quantified anti form.
    All,
    /// Theorem 6.1 (Queries JA′/COUNT′ and the constant type A).
    Aggregate,
}

impl RewriteRule {
    /// The diagnostic rule id: the paper theorem (or remark) the rewrite is
    /// licensed by. These ids appear in verifier diagnostics and DESIGN.md.
    pub fn id(&self) -> &'static str {
        match self {
            RewriteRule::Flat => "none",
            RewriteRule::TypeN { .. } => "T4.1",
            RewriteRule::TypeJ { .. } => "T4.2",
            RewriteRule::TypeSome { .. } => "T4.2-SOME",
            RewriteRule::Chain { .. } => "T8.1",
            RewriteRule::Exists => "S7-EXISTS",
            RewriteRule::Exclusion => "T5.1",
            RewriteRule::All => "T7.1",
            RewriteRule::Aggregate => "T6.1",
        }
    }

    /// The nesting-level binding lists, for the flat-form rules that carry
    /// them.
    pub fn blocks(&self) -> Option<&[Vec<String>]> {
        match self {
            RewriteRule::TypeN { blocks }
            | RewriteRule::TypeJ { blocks }
            | RewriteRule::TypeSome { blocks }
            | RewriteRule::Chain { blocks } => Some(blocks),
            _ => None,
        }
    }
}

impl std::fmt::Display for RewriteRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// A flat select-project-join plan (N′, J′, chains, SOME).
#[derive(Debug, Clone)]
pub struct FlatPlan {
    /// Base relations in join order (the FROM order; chain queries join
    /// adjacent blocks so this order is always connected).
    pub tables: Vec<PlanTable>,
    /// Cross-table predicates. For each adjacent join step the executor
    /// picks an equality to drive the merge; the rest are residuals.
    pub join_preds: Vec<PlanCompare>,
    /// Output columns (projection with fuzzy-OR duplicate elimination).
    pub select: Vec<PlanCol>,
    /// Final `WITH` threshold.
    pub threshold: Option<Threshold>,
    /// The equivalence rule that produced this plan (verified statically).
    pub rule: RewriteRule,
}

/// What the anti-join accumulates per inner tuple (Sections 5 and 7).
#[derive(Debug, Clone, PartialEq)]
pub enum AntiKind {
    /// JX′/NX′: contribution `1 − min(μ_S∧p₂, d(joins))`.
    Exclusion,
    /// JALL′: contribution `1 − min(μ_S∧p₂, d(corr joins), 1 − d(R.Y op S.Z))`
    /// for the quantified comparison `op`.
    All {
        /// The quantified comparison operator.
        op: CmpOp,
        /// The outer operand of the quantified comparison.
        lhs: PlanOperand,
        /// The inner (sub-query select) column.
        rhs: PlanOperand,
    },
}

/// The grouped-MIN(D) plan for `NOT IN` and `ALL` (JX′/JALL′). A logical
/// plan: how the operator reads its inputs, and the merge window it may
/// scan, are decided when it is lowered (`exec::lower`'s `Access`).
#[derive(Debug, Clone)]
pub struct AntiPlan {
    /// Outer relation with p₁.
    pub outer: PlanTable,
    /// Inner relation with p₂.
    pub inner: PlanTable,
    /// Predicates inside the negation that reference both relations (the
    /// correlation joins, and for JX′ also the `R.Y = S.Z` pair). For
    /// `AntiKind::All` the quantified pair lives in the kind instead.
    pub pair_preds: Vec<PlanCompare>,
    /// Which degree the inner contribution accumulates.
    pub kind: AntiKind,
    /// Output columns from the outer relation.
    pub select: Vec<PlanCol>,
    /// Final `WITH` threshold.
    pub threshold: Option<Threshold>,
    /// The equivalence rule that produced this plan (verified statically).
    pub rule: RewriteRule,
}

/// The aggregate plan for type JA / COUNT′ (Theorem 6.1).
#[derive(Debug, Clone)]
pub struct AggPlan {
    /// Outer relation with p₁.
    pub outer: PlanTable,
    /// Inner relation with p₂.
    pub inner: PlanTable,
    /// The correlation predicate `S.V op₂ R.U` as
    /// `(outer column U, op₂, inner column V)`, where op₂ reads
    /// "inner value op₂ outer value". `None` for the uncorrelated type A,
    /// whose inner block is a constant and needs no unnesting (Section 6).
    pub corr: Option<(PlanCol, CmpOp, PlanCol)>,
    /// The aggregate function and its inner input column `S.Z`.
    pub agg: (AggFunc, PlanCol),
    /// The outer comparison `R.Y op₁ AGG(...)`.
    pub compare: (PlanOperand, CmpOp),
    /// Output columns from the outer relation.
    pub select: Vec<PlanCol>,
    /// Final `WITH` threshold.
    pub threshold: Option<Threshold>,
    /// Degree assigned to an aggregate result, `D(A(r))`. Fuzzy SQL fixes it
    /// to 1; the paper notes average-membership alternatives, which
    /// [`AggDegree::MeanMembership`] provides as an ablation.
    pub agg_degree: AggDegree,
    /// The equivalence rule that produced this plan (verified statically).
    pub rule: RewriteRule,
}

/// How `D(A(r))` — the degree of an aggregated value — is derived from the
/// group `T(r)` (Section 6 leaves this open; Fuzzy SQL uses 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggDegree {
    /// `D(A(r)) = 1` (Fuzzy SQL, the default).
    #[default]
    One,
    /// `D(A(r))` = the mean membership degree of `T(r)`.
    MeanMembership,
}

impl AggDegree {
    /// Computes the degree from the member degrees of the group, which
    /// only [`AggDegree::MeanMembership`] reads.
    pub fn of_group(&self, member_degrees: impl IntoIterator<Item = Degree>) -> Degree {
        match self {
            AggDegree::One => Degree::ONE,
            AggDegree::MeanMembership => {
                let mut n = 0usize;
                let sum: f64 =
                    member_degrees.into_iter().inspect(|_| n += 1).map(|d| d.value()).sum();
                if n == 0 {
                    Degree::ONE
                } else {
                    Degree::clamped(sum / n as f64)
                }
            }
        }
    }
}

/// A complete unnested plan.
#[derive(Debug, Clone)]
pub enum UnnestPlan {
    /// Flat select-project-join (N′, J′, chains, SOME, already-flat queries).
    Flat(FlatPlan),
    /// Grouped MIN(D) anti form (JX′, NX′, JALL′, ALL′).
    Anti(AntiPlan),
    /// Aggregate form (JA′ / COUNT′), including the uncorrelated constant
    /// case (type A).
    Agg(AggPlan),
}

impl UnnestPlan {
    /// The equivalence rule the plan was produced by.
    pub fn rule(&self) -> &RewriteRule {
        match self {
            UnnestPlan::Flat(p) => &p.rule,
            UnnestPlan::Anti(p) => &p.rule,
            UnnestPlan::Agg(p) => &p.rule,
        }
    }

    /// The final `WITH` threshold, if any.
    pub fn threshold(&self) -> Option<Threshold> {
        match self {
            UnnestPlan::Flat(p) => p.threshold,
            UnnestPlan::Anti(p) => p.threshold,
            UnnestPlan::Agg(p) => p.threshold,
        }
    }
}

impl std::fmt::Display for PlanCol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.#{}", self.binding, self.attr)
    }
}

impl std::fmt::Display for PlanOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanOperand::Col(c) => write!(f, "{c}"),
            PlanOperand::Const(v) => write!(f, "{v}"),
        }
    }
}

impl std::fmt::Display for PlanCompare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

impl UnnestPlan {
    /// A multi-line EXPLAIN rendering of the plan with its anti or aggregate
    /// operator reading its inputs by `access`, the mode its lowered node
    /// holds (`None` for a flat plan). Table sizes are read from `catalog`,
    /// the statement's snapshot.
    pub(crate) fn explain(&self, access: Option<&Access>, catalog: &Catalog) -> String {
        let mut out = String::new();
        let table_line = |t: &PlanTable, role: &str, out: &mut String| {
            let (tuples, pages) =
                t.stored(catalog).map_or((0, 0), |s| (s.num_tuples(), s.num_pages()));
            out.push_str(&format!("  {role} {} ({tuples} tuples, {pages} pages", t.binding));
            if !t.local_preds.is_empty() {
                out.push_str(&format!(
                    ", filter: {}",
                    t.local_preds.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(" AND ")
                ));
            }
            out.push_str(")\n");
        };
        match self {
            UnnestPlan::Flat(p) => {
                out.push_str(&format!("FlatJoin [{} tables]\n", p.tables.len()));
                for (i, t) in p.tables.iter().enumerate() {
                    table_line(t, if i == 0 { "scan " } else { "join " }, &mut out);
                }
                if !p.join_preds.is_empty() {
                    out.push_str(&format!(
                        "  on: {}\n",
                        p.join_preds
                            .iter()
                            .map(|p| p.to_string())
                            .collect::<Vec<_>>()
                            .join(" AND ")
                    ));
                }
            }
            UnnestPlan::Anti(p) => {
                let kind = match &p.kind {
                    AntiKind::Exclusion => "NOT IN (grouped MIN over negated degrees)".into(),
                    AntiKind::All { op, lhs, .. } => {
                        format!("{lhs} {op} ALL (grouped MIN over negated degrees)")
                    }
                };
                out.push_str(&format!("Anti [{kind}]\n"));
                table_line(&p.outer, "outer", &mut out);
                table_line(&p.inner, "inner", &mut out);
                match access {
                    Some(Access::NestedLoop) => out.push_str(
                        "  block nested loop (every outer tuple against every inner tuple)\n",
                    ),
                    Some(Access::Merge { outer, inner }) => {
                        out.push_str(&format!("  merge window on {outer} = {inner}\n"))
                    }
                    _ => out.push_str("  scan (inner set built once, no merge window)\n"),
                }
                if !p.pair_preds.is_empty() {
                    out.push_str(&format!(
                        "  negated conjunction: {}\n",
                        p.pair_preds
                            .iter()
                            .map(|p| p.to_string())
                            .collect::<Vec<_>>()
                            .join(" AND ")
                    ));
                }
            }
            UnnestPlan::Agg(p) => {
                out.push_str(&format!(
                    "Aggregate [{}({}) compared via {}]\n",
                    p.agg.0.name(),
                    p.agg.1,
                    p.compare.1
                ));
                table_line(&p.outer, "outer", &mut out);
                table_line(&p.inner, "inner", &mut out);
                match (access, &p.corr) {
                    (Some(Access::NestedLoop), Some((u, op, v))) => out.push_str(&format!(
                        "  T1/T2 groups per outer tuple: {v} {op} {u} (block nested loop)\n"
                    )),
                    (Some(Access::NestedLoop), None) => out.push_str(
                        "  uncorrelated: inner aggregate per outer tuple (block nested loop)\n",
                    ),
                    (_, Some((u, op, v))) => out.push_str(&format!(
                        "  pipelined T1/T2 groups: {v} {op} {u}{}\n",
                        if matches!(access, Some(Access::Merge { .. })) {
                            " (merge window)"
                        } else {
                            " (scan fallback)"
                        }
                    )),
                    (_, None) => out.push_str("  uncorrelated: constant inner aggregate\n"),
                }
                if p.agg.0 == AggFunc::Count {
                    out.push_str("  COUNT': left outer join with [Y op A : Y op 0]\n");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(b: &str, i: usize) -> PlanOperand {
        PlanOperand::Col(PlanCol { binding: b.into(), attr: i })
    }

    #[test]
    fn equi_detection() {
        let p = PlanCompare::new(col("R", 1), CmpOp::Eq, col("S", 2));
        assert!(p.is_equi_between("R", "S"));
        assert!(p.is_equi_between("S", "R"));
        assert!(!p.is_equi_between("R", "T"));
        let q = PlanCompare::new(col("R", 1), CmpOp::Lt, col("S", 2));
        assert!(!q.is_equi_between("R", "S"));
        let c = PlanCompare::new(col("R", 1), CmpOp::Eq, PlanOperand::Const(Value::number(5.0)));
        assert!(!c.is_equi_between("R", "S"));
        assert_eq!(c.bindings(), vec!["R"]);
    }

    #[test]
    fn agg_degree_modes() {
        let ds = [Degree::new(0.2).unwrap(), Degree::new(0.8).unwrap()];
        assert_eq!(AggDegree::One.of_group(ds), Degree::ONE);
        assert!((AggDegree::MeanMembership.of_group(ds).value() - 0.5).abs() < 1e-12);
        assert_eq!(AggDegree::MeanMembership.of_group([]), Degree::ONE);
        assert_eq!(AggDegree::default(), AggDegree::One);
    }
}
