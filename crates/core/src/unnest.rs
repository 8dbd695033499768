//! The unnesting transformer: nested Fuzzy SQL → flat plans.
//!
//! Implements the paper's transformations with the equivalences of
//! Theorems 4.1–8.1:
//!
//! | query type | section | plan |
//! |---|---|---|
//! | N, J (and flat, SOME) | 4 | [`FlatPlan`] (Query N′/J′) |
//! | NX, JX (`NOT IN`) | 5 | [`AntiPlan`] with [`AntiKind::Exclusion`] (Query JX′) |
//! | A, JA (aggregates) | 6 | [`AggPlan`] (T1/T2 + Query JA′ / COUNT′) |
//! | ALL, JALL | 7 | [`AntiPlan`] with [`AntiKind::All`] (Query JALL′) |
//! | chain Q_K | 8 | [`FlatPlan`] over K relations (Query Q′_K) |
//!
//! Query shapes outside the catalogue (`EXISTS`, several sub-queries per
//! block, grouped user queries, multi-table inner blocks) return
//! [`EngineError::Unsupported`]; the engine then falls back to the naive
//! evaluator.

use crate::error::{EngineError, Result};
use crate::plan::{
    AggDegree, AggPlan, AntiKind, AntiPlan, FlatPlan, PlanCol, PlanCompare, PlanOperand, PlanTable,
    RewriteRule, UnnestPlan,
};
use fuzzy_core::{Value, Vocabulary};
use fuzzy_rel::{AttrType, Catalog, Schema, StoredTable};
use fuzzy_sql::{
    classify, ColumnRef, Operand, Predicate, Quantifier, Query, QueryClass, SelectItem,
};

/// Builds an unnested plan for the query, per its classified type.
pub fn build_plan(q: &Query, catalog: &Catalog) -> Result<UnnestPlan> {
    match classify(q) {
        QueryClass::Flat => flat_plan(&[q], catalog, QueryClass::Flat),
        class @ (QueryClass::TypeN
        | QueryClass::TypeJ
        | QueryClass::TypeJSome
        | QueryClass::Chain(_)) => {
            let blocks = collect_chain_blocks(q);
            flat_plan(&blocks, catalog, class)
        }
        QueryClass::TypeNX | QueryClass::TypeJX => anti_exclusion_plan(q, catalog),
        QueryClass::TypeExists | QueryClass::TypeNotExists => exists_plan(q, catalog),
        QueryClass::TypeAll | QueryClass::TypeJAll => anti_all_plan(q, catalog),
        QueryClass::TypeA | QueryClass::TypeJA => agg_plan(q, catalog),
        QueryClass::General => Err(EngineError::Unsupported(
            "query shape outside the paper's unnesting catalogue (EXISTS, multiple \
             sub-queries per block, or mixed nesting); use the naive strategy"
                .into(),
        )),
    }
}

/// The blocks of a chain query, outermost first. For type N/J/SOME this is
/// the two blocks; for Chain(K) all K.
fn collect_chain_blocks(q: &Query) -> Vec<&Query> {
    let mut blocks = vec![q];
    let mut cur = q;
    loop {
        let subs = cur.direct_subqueries();
        match subs.first() {
            Some(next) => {
                blocks.push(next);
                cur = next;
            }
            None => return blocks,
        }
    }
}

// ---------------------------------------------------------------------------
// Scopes and binding
// ---------------------------------------------------------------------------

/// Name-resolution scope: `(binding, schema)` frames, outermost first.
struct Scope {
    frames: Vec<(String, Schema)>,
}

impl Scope {
    fn resolve(&self, c: &ColumnRef) -> Result<(PlanCol, AttrType)> {
        // Innermost-first, mirroring the naive evaluator.
        for (binding, schema) in self.frames.iter().rev() {
            if let Some(t) = &c.table {
                if !binding.eq_ignore_ascii_case(t) {
                    continue;
                }
                if let Some(attr) = schema.index_of(&c.column) {
                    return Ok((PlanCol { binding: binding.clone(), attr }, schema.attr(attr).ty));
                }
                if c.is_degree() {
                    return Err(EngineError::Unsupported(format!(
                        "the membership-degree pseudo-column {c} in a predicate is \
                         evaluated by the naive strategy"
                    )));
                }
                return Err(EngineError::Bind(format!("no attribute {} in {}", c.column, binding)));
            }
            if let Some(attr) = schema.index_of(&c.column) {
                return Ok((PlanCol { binding: binding.clone(), attr }, schema.attr(attr).ty));
            }
        }
        if c.is_degree() {
            // The Section 5 degree-as-predicate device: physical plans carry
            // degrees implicitly, so route to the naive evaluator.
            return Err(EngineError::Unsupported(format!(
                "the membership-degree pseudo-column {c} in a predicate is \
                 evaluated by the naive strategy"
            )));
        }
        Err(EngineError::Bind(format!("unresolved column {c}")))
    }
}

/// The table `name` in `catalog`, or a bind error naming it.
pub(crate) fn lookup_table<'c>(catalog: &'c Catalog, name: &str) -> Result<&'c StoredTable> {
    catalog.table(name).ok_or_else(|| EngineError::Bind(format!("unknown table {name:?}")))
}

/// Binds a quoted term against its partner's attribute type: text partners
/// make it text; numeric partners resolve it in the vocabulary (falling back
/// to text for unknown terms, which then simply never match numbers).
fn bind_term(term: &str, partner: Option<AttrType>, vocab: &Vocabulary) -> Value {
    match partner {
        Some(AttrType::Text) => Value::text(term),
        _ => match vocab.resolve(term) {
            Ok(shape) => Value::fuzzy(shape),
            Err(_) => Value::text(term),
        },
    }
}

fn bind_operand(
    o: &Operand,
    partner: Option<AttrType>,
    scope: &Scope,
    vocab: &Vocabulary,
) -> Result<PlanOperand> {
    Ok(match o {
        Operand::Column(c) => PlanOperand::Col(scope.resolve(c)?.0),
        Operand::Number(n) => PlanOperand::Const(Value::number(*n)),
        Operand::Term(t) => PlanOperand::Const(bind_term(t, partner, vocab)),
        Operand::FuzzyLiteral(a, b, c, d) => {
            PlanOperand::Const(crate::naive::fuzzy_literal_value(*a, *b, *c, *d)?)
        }
    })
}

fn operand_type(o: &Operand, scope: &Scope) -> Option<AttrType> {
    match o {
        Operand::Column(c) => scope.resolve(c).ok().map(|(_, t)| t),
        Operand::Number(_) | Operand::FuzzyLiteral(..) => Some(AttrType::Number),
        Operand::Term(_) => None,
    }
}

fn bind_compare(
    lhs: &Operand,
    op: fuzzy_core::CmpOp,
    rhs: &Operand,
    scope: &Scope,
    vocab: &Vocabulary,
) -> Result<PlanCompare> {
    let lt = operand_type(lhs, scope);
    let rt = operand_type(rhs, scope);
    Ok(PlanCompare {
        lhs: bind_operand(lhs, rt, scope, vocab)?,
        op,
        rhs: bind_operand(rhs, lt, scope, vocab)?,
        tolerance: None,
    })
}

/// Distributes bound predicates: a predicate referencing (at most) one table
/// binding becomes local to that table; others become join predicates.
fn distribute(
    preds: Vec<PlanCompare>,
    tables: &mut [PlanTable],
    join_preds: &mut Vec<PlanCompare>,
) {
    'pred: for p in preds {
        let bindings = p.bindings();
        if let Some(first) = bindings.first() {
            if bindings.iter().all(|b| b == first) {
                if let Some(t) = tables.iter_mut().find(|t| t.binding == *first) {
                    t.local_preds.push(p);
                    continue 'pred;
                }
            }
        }
        join_preds.push(p);
    }
}

/// The single column a sub-query block selects.
fn block_select_column(q: &Query) -> Result<&ColumnRef> {
    match q.select.as_slice() {
        [SelectItem::Column(c)] => Ok(c),
        _ => Err(EngineError::Unsupported("sub-query must select exactly one plain column".into())),
    }
}

/// Output columns of the outermost block.
fn select_columns(q: &Query, scope: &Scope) -> Result<Vec<PlanCol>> {
    q.select
        .iter()
        .map(|item| match item {
            SelectItem::Column(c) => Ok(scope.resolve(c)?.0),
            other => Err(EngineError::Unsupported(format!(
                "physical plans project plain columns only, found {other:?}"
            ))),
        })
        .collect()
}

fn check_plain_block(q: &Query) -> Result<()> {
    if !q.group_by.is_empty() || !q.having.is_empty() {
        return Err(EngineError::Unsupported(
            "GROUP BY / HAVING in a user query is evaluated by the naive strategy".into(),
        ));
    }
    Ok(())
}

/// Inner blocks must not carry ORDER BY / LIMIT: limiting a sub-query changes
/// which tuples feed the unnesting, which the flat forms cannot express.
fn check_inner_block(q: &Query) -> Result<()> {
    check_plain_block(q)?;
    if q.order_by.is_some() || q.limit.is_some() {
        return Err(EngineError::Unsupported(
            "ORDER BY / LIMIT in a sub-query is evaluated by the naive strategy".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Flat plans (N', J', SOME, chains, already-flat queries)
// ---------------------------------------------------------------------------

fn flat_plan(blocks: &[&Query], catalog: &Catalog, class: QueryClass) -> Result<UnnestPlan> {
    let vocab = catalog.vocabulary();
    let mut tables: Vec<PlanTable> = Vec::new();
    let mut frames: Vec<(String, Schema)> = Vec::new();
    let mut level_bindings: Vec<Vec<String>> = Vec::new();
    // Register the tables of every block, outermost first; bindings must be
    // unique across blocks for the flattening to be expressible.
    for (bi, block) in blocks.iter().enumerate() {
        if bi == 0 {
            check_plain_block(block)?;
        } else {
            check_inner_block(block)?;
        }
        level_bindings.push(Vec::new());
        for tref in &block.from {
            let binding = tref.binding_name().to_string();
            if tables.iter().any(|t| t.binding.eq_ignore_ascii_case(&binding)) {
                return Err(EngineError::Unsupported(format!(
                    "binding {binding:?} is reused across nesting levels"
                )));
            }
            let table = lookup_table(catalog, &tref.table)?;
            frames.push((binding.clone(), table.schema().clone()));
            level_bindings[bi].push(binding.clone());
            tables.push(PlanTable::new(binding, table));
        }
    }

    let mut join_preds: Vec<PlanCompare> = Vec::new();
    let mut frames_seen = 0usize;
    for (i, block) in blocks.iter().enumerate() {
        frames_seen += block.from.len();
        // Scope: every binding from the outermost block down to this one,
        // with this block's bindings innermost.
        let scope = Scope { frames: frames[..frames_seen].to_vec() };
        let mut bound: Vec<PlanCompare> = Vec::new();
        for p in &block.predicates {
            match p {
                Predicate::Compare { lhs, op, rhs } => {
                    bound.push(bind_compare(lhs, *op, rhs, &scope, vocab)?);
                }
                Predicate::Similar { lhs, rhs, tolerance } => {
                    let mut b = bind_compare(lhs, fuzzy_core::CmpOp::Eq, rhs, &scope, vocab)?;
                    b.tolerance = Some(*tolerance);
                    bound.push(b);
                }
                Predicate::In { lhs, negated, query: _ } => {
                    debug_assert!(!negated, "exclusion is not a chain link");
                    // The IN linkage becomes the equi-join
                    // R_i.Y_i = R_{i+1}.X_{i+1} (Theorem 8.1).
                    let inner = &blocks[i + 1];
                    let inner_col = block_select_column(inner)?;
                    let inner_scope =
                        Scope { frames: frames[..frames_seen + inner.from.len()].to_vec() };
                    let (rhs_col, rhs_ty) = inner_scope.resolve(inner_col)?;
                    let lhs_bound = bind_operand(lhs, Some(rhs_ty), &scope, vocab)?;
                    bound.push(PlanCompare {
                        lhs: lhs_bound,
                        op: fuzzy_core::CmpOp::Eq,
                        rhs: PlanOperand::Col(rhs_col),
                        tolerance: None,
                    });
                }
                Predicate::Quantified { lhs, op, quantifier, query } => {
                    debug_assert!(
                        matches!(quantifier, Quantifier::Some),
                        "ALL is routed to the anti plan"
                    );
                    // θ SOME unnests like IN with θ in place of equality.
                    let inner = query;
                    let inner_col = block_select_column(inner)?;
                    let inner_scope =
                        Scope { frames: frames[..frames_seen + inner.from.len()].to_vec() };
                    let (rhs_col, rhs_ty) = inner_scope.resolve(inner_col)?;
                    let lhs_bound = bind_operand(lhs, Some(rhs_ty), &scope, vocab)?;
                    bound.push(PlanCompare {
                        lhs: lhs_bound,
                        op: *op,
                        rhs: PlanOperand::Col(rhs_col),
                        tolerance: None,
                    });
                }
                other => {
                    return Err(EngineError::Unsupported(format!(
                        "unexpected predicate in a chain block: {other:?}"
                    )))
                }
            }
        }
        distribute(bound, &mut tables, &mut join_preds);
    }

    // Output columns of the outermost block only.
    let outer_frames = blocks[0].from.len();
    let outer_scope = Scope { frames: frames[..outer_frames].to_vec() };
    let select = select_columns(blocks[0], &outer_scope)?;
    // Tag with the equivalence rule. N vs. J is decided from the *bound*
    // plan, not the classifier: an unqualified inner reference to an outer
    // column is invisible to `classify` (it counts qualified names only) but
    // resolves to the outer binding here, making the plan correlated — the
    // tag must reflect what the plan actually is or the verifier's
    // independence check (R-T4.1-INDEP) would reject a sound plan.
    let rule = match class {
        QueryClass::TypeJSome => RewriteRule::TypeSome { blocks: level_bindings },
        QueryClass::Chain(_) => RewriteRule::Chain { blocks: level_bindings },
        QueryClass::TypeN | QueryClass::TypeJ => {
            let cross =
                join_preds.iter().filter(|p| cross_level(p, &level_bindings).is_some()).count();
            if cross <= 1 {
                RewriteRule::TypeN { blocks: level_bindings }
            } else {
                RewriteRule::TypeJ { blocks: level_bindings }
            }
        }
        _ => RewriteRule::Flat,
    };
    Ok(UnnestPlan::Flat(FlatPlan {
        tables,
        join_preds,
        select,
        threshold: blocks[0].with_threshold,
        rule,
    }))
}

/// The `(lo, hi)` level span of a predicate's bindings, when it references
/// more than one nesting level.
fn cross_level(p: &PlanCompare, levels: &[Vec<String>]) -> Option<(usize, usize)> {
    let mut lo = usize::MAX;
    let mut hi = 0usize;
    for b in p.bindings() {
        if let Some(l) = levels.iter().position(|lv| lv.iter().any(|x| x == b)) {
            lo = lo.min(l);
            hi = hi.max(l);
        }
    }
    (lo < hi).then_some((lo, hi))
}

// ---------------------------------------------------------------------------
// Two-level helper: a single outer table, a single inner table
// ---------------------------------------------------------------------------

struct TwoLevel {
    outer: PlanTable,
    inner: PlanTable,
    scope: Scope,
    /// Bound inner-block predicates that reference both relations.
    pair_preds: Vec<PlanCompare>,
}

fn two_level(q: &Query, sub: &Query, catalog: &Catalog) -> Result<TwoLevel> {
    check_plain_block(q)?;
    check_inner_block(sub)?;
    let (outer_ref, inner_ref) = match (q.from.as_slice(), sub.from.as_slice()) {
        ([o], [i]) => (o, i),
        _ => {
            return Err(EngineError::Unsupported(
                "NOT IN / ALL / aggregate unnesting requires single-table blocks".into(),
            ))
        }
    };
    let vocab = catalog.vocabulary();
    let outer_table = lookup_table(catalog, &outer_ref.table)?;
    let inner_table = lookup_table(catalog, &inner_ref.table)?;
    let ob = outer_ref.binding_name().to_string();
    let ib = inner_ref.binding_name().to_string();
    if ob.eq_ignore_ascii_case(&ib) {
        return Err(EngineError::Unsupported(format!(
            "binding {ob:?} is reused across nesting levels"
        )));
    }
    let scope = Scope {
        frames: vec![
            (ob.clone(), outer_table.schema().clone()),
            (ib.clone(), inner_table.schema().clone()),
        ],
    };
    let mut outer = PlanTable::new(ob, outer_table);
    let mut inner = PlanTable::new(ib, inner_table);

    // Outer block: simple predicates only (p1, folded into the outer scan);
    // the sub-query predicate itself is handled by the caller.
    let outer_scope = Scope { frames: scope.frames[..1].to_vec() };
    for p in &q.predicates {
        match p {
            Predicate::Compare { lhs, op, rhs } => {
                outer.local_preds.push(bind_compare(lhs, *op, rhs, &outer_scope, vocab)?);
            }
            Predicate::Similar { lhs, rhs, tolerance } => {
                let mut b = bind_compare(lhs, fuzzy_core::CmpOp::Eq, rhs, &outer_scope, vocab)?;
                b.tolerance = Some(*tolerance);
                outer.local_preds.push(b);
            }
            _ => {}
        }
    }

    // Inner block: p2 (inner-only) folds into the inner scan; predicates
    // touching the outer binding become pair predicates.
    let mut pair_preds = Vec::new();
    for p in &sub.predicates {
        let bound = match p {
            Predicate::Compare { lhs, op, rhs } => bind_compare(lhs, *op, rhs, &scope, vocab)?,
            Predicate::Similar { lhs, rhs, tolerance } => {
                let mut b = bind_compare(lhs, fuzzy_core::CmpOp::Eq, rhs, &scope, vocab)?;
                b.tolerance = Some(*tolerance);
                b
            }
            other => {
                return Err(EngineError::Unsupported(format!(
                    "nested predicate inside a 2-level inner block: {other:?}"
                )))
            }
        };
        let bindings = bound.bindings();
        if !bindings.is_empty() && bindings.iter().all(|b| *b == inner.binding) {
            inner.local_preds.push(bound);
        } else {
            pair_preds.push(bound);
        }
    }
    Ok(TwoLevel { outer, inner, scope, pair_preds })
}

// ---------------------------------------------------------------------------
// JX' / NX' (Section 5)
// ---------------------------------------------------------------------------

fn anti_exclusion_plan(q: &Query, catalog: &Catalog) -> Result<UnnestPlan> {
    let (lhs, sub) = match q.predicates.iter().find_map(|p| match p {
        Predicate::In { lhs, negated: true, query } => Some((lhs, query.as_ref())),
        _ => None,
    }) {
        Some(x) => x,
        None => return Err(EngineError::Unsupported("expected a NOT IN predicate".into())),
    };
    let mut tl = two_level(q, sub, catalog)?;
    let vocab = catalog.vocabulary();
    // The NOT IN pair R.Y = S.Z joins the negation's conjunction.
    let inner_col = block_select_column(sub)?;
    let (rhs_col, rhs_ty) = tl.scope.resolve(inner_col)?;
    let lhs_bound = bind_operand(lhs, Some(rhs_ty), &tl.scope, vocab)?;
    tl.pair_preds.push(PlanCompare {
        lhs: lhs_bound,
        op: fuzzy_core::CmpOp::Eq,
        rhs: PlanOperand::Col(rhs_col),
        tolerance: None,
    });
    let outer_scope = Scope { frames: tl.scope.frames[..1].to_vec() };
    let select = select_columns(q, &outer_scope)?;
    Ok(UnnestPlan::Anti(AntiPlan {
        outer: tl.outer,
        inner: tl.inner,
        pair_preds: tl.pair_preds,
        kind: AntiKind::Exclusion,
        select,
        threshold: q.with_threshold,
        rule: RewriteRule::Exclusion,
    }))
}

// ---------------------------------------------------------------------------
// EXISTS / NOT EXISTS (unnested "similarly", per Section 7's remark)
// ---------------------------------------------------------------------------

fn exists_plan(q: &Query, catalog: &Catalog) -> Result<UnnestPlan> {
    let (negated, sub) = match q.predicates.iter().find_map(|p| match p {
        Predicate::Exists { negated, query } => Some((*negated, query.as_ref())),
        _ => None,
    }) {
        Some(x) => x,
        None => return Err(EngineError::Unsupported("expected an EXISTS predicate".into())),
    };
    let tl = two_level(q, sub, catalog)?;
    let outer_scope = Scope { frames: tl.scope.frames[..1].to_vec() };
    let select = select_columns(q, &outer_scope)?;
    if negated {
        // d_r = min(μ_R∧p₁, min_s (1 − min(μ_S∧p₂, d(corr)))) — the
        // Section 5 anti form with the correlation joins alone.
        Ok(UnnestPlan::Anti(AntiPlan {
            outer: tl.outer,
            inner: tl.inner,
            pair_preds: tl.pair_preds,
            kind: AntiKind::Exclusion,
            select,
            threshold: q.with_threshold,
            rule: RewriteRule::Exclusion,
        }))
    } else {
        // d_r = min(μ_R∧p₁, max_s min(μ_S∧p₂, d(corr))): the flat join on
        // the correlation predicates with fuzzy-OR dedup plays the max.
        Ok(UnnestPlan::Flat(FlatPlan {
            tables: vec![tl.outer, tl.inner],
            join_preds: tl.pair_preds,
            select,
            threshold: q.with_threshold,
            rule: RewriteRule::Exists,
        }))
    }
}

// ---------------------------------------------------------------------------
// JALL' (Section 7)
// ---------------------------------------------------------------------------

fn anti_all_plan(q: &Query, catalog: &Catalog) -> Result<UnnestPlan> {
    let (lhs, op, sub) = match q.predicates.iter().find_map(|p| match p {
        Predicate::Quantified { lhs, op, quantifier: Quantifier::All, query } => {
            Some((lhs, *op, query.as_ref()))
        }
        _ => None,
    }) {
        Some(x) => x,
        None => return Err(EngineError::Unsupported("expected an ALL predicate".into())),
    };
    let tl = two_level(q, sub, catalog)?;
    let vocab = catalog.vocabulary();
    let inner_col = block_select_column(sub)?;
    let (rhs_col, rhs_ty) = tl.scope.resolve(inner_col)?;
    let lhs_bound = bind_operand(lhs, Some(rhs_ty), &tl.scope, vocab)?;
    let outer_scope = Scope { frames: tl.scope.frames[..1].to_vec() };
    let select = select_columns(q, &outer_scope)?;
    Ok(UnnestPlan::Anti(AntiPlan {
        outer: tl.outer,
        inner: tl.inner,
        pair_preds: tl.pair_preds,
        kind: AntiKind::All { op, lhs: lhs_bound, rhs: PlanOperand::Col(rhs_col) },
        select,
        threshold: q.with_threshold,
        rule: RewriteRule::All,
    }))
}

// ---------------------------------------------------------------------------
// JA' / COUNT' (Section 6)
// ---------------------------------------------------------------------------

fn agg_plan(q: &Query, catalog: &Catalog) -> Result<UnnestPlan> {
    let (lhs, op1, sub) = match q.predicates.iter().find_map(|p| match p {
        Predicate::AggSubquery { lhs, op, query } => Some((lhs, *op, query.as_ref())),
        _ => None,
    }) {
        Some(x) => x,
        None => return Err(EngineError::Unsupported("expected an aggregate sub-query".into())),
    };
    let tl = two_level(q, sub, catalog)?;
    let vocab = catalog.vocabulary();
    // Inner select must be AGG(S.Z).
    let (agg, agg_col) = match sub.select.as_slice() {
        [SelectItem::Aggregate(agg, c)] => {
            let (col, _) = tl.scope.resolve(c)?;
            if col.binding != tl.inner.binding {
                return Err(EngineError::Unsupported(
                    "aggregate input must come from the inner relation".into(),
                ));
            }
            (*agg, col)
        }
        _ => {
            return Err(EngineError::Unsupported(
                "aggregate sub-query must select exactly one aggregate".into(),
            ))
        }
    };
    // At most one correlation predicate, of the form S.V op2 R.U.
    let corr = match tl.pair_preds.as_slice() {
        [] => None,
        [p] => {
            if p.tolerance.is_some() {
                // The grouping pipeline rebuilds the correlation comparison
                // from (col, op, col) and would drop the tolerance — route
                // similarity correlations to the naive evaluator instead.
                return Err(EngineError::Unsupported(
                    "a similarity correlation predicate in an aggregate sub-query is \
                     evaluated by the naive strategy"
                        .into(),
                ));
            }
            let (l, r) = match (p.lhs.as_col(), p.rhs.as_col()) {
                (Some(l), Some(r)) => (l.clone(), r.clone()),
                _ => {
                    return Err(EngineError::Unsupported(
                        "correlation predicate must compare two columns".into(),
                    ))
                }
            };
            if l.binding == tl.inner.binding && r.binding == tl.outer.binding {
                Some((r, p.op, l)) // S.V op2 R.U as written
            } else if l.binding == tl.outer.binding && r.binding == tl.inner.binding {
                Some((l, p.op.flipped(), r)) // rewrite R.U op S.V as S.V op' R.U
            } else {
                return Err(EngineError::Unsupported(
                    "correlation predicate must link the inner and outer relations".into(),
                ));
            }
        }
        _ => {
            return Err(EngineError::Unsupported(
                "aggregate unnesting supports a single correlation predicate".into(),
            ))
        }
    };
    let outer_scope = Scope { frames: tl.scope.frames[..1].to_vec() };
    let lhs_bound = bind_operand(lhs, Some(AttrType::Number), &outer_scope, vocab)?;
    let select = select_columns(q, &outer_scope)?;
    Ok(UnnestPlan::Agg(AggPlan {
        outer: tl.outer,
        inner: tl.inner,
        corr,
        agg: (agg, agg_col),
        compare: (lhs_bound, op1),
        select,
        threshold: q.with_threshold,
        agg_degree: AggDegree::One,
        rule: RewriteRule::Aggregate,
    }))
}
