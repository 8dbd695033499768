//! The naive, semantics-faithful evaluator for (arbitrarily nested) Fuzzy SQL.
//!
//! This module implements the execution semantics of Sections 2 and 4–8
//! literally: for every combination of FROM tuples, the satisfaction degree
//! of the WHERE conjunction is the fuzzy AND (min) of the tuple membership
//! degrees and all predicate degrees; nested blocks are re-evaluated for
//! every outer tuple; answers are duplicate-eliminated by fuzzy OR (max).
//!
//! It serves two purposes:
//!
//! 1. it is the reference the unnesting transformations are proven equivalent
//!    to (Theorems 4.1–8.1) — the test suite checks the physical unnested
//!    plans produce *identical* fuzzy relations;
//! 2. with its `O(∏ n_i)` behaviour it is the "naive evaluation method based
//!    on [the query's] semantics" whose cost the paper's Section 1 warns
//!    about. (The paper's measured baseline, the block nested-loop join, is
//!    in [`crate::nested_loop`].)

use crate::error::{EngineError, Result};
use fuzzy_core::hash::ValueHashBuilder;
use fuzzy_core::{arith, CmpOp, Degree, Trapezoid, Value, Vocabulary};
use fuzzy_rel::{AttrType, Attribute, Catalog, Relation, Schema, Tuple};
use fuzzy_sql::{
    AggFunc, ColumnRef, HavingOperand, Operand, OrderKey, Predicate, Quantifier, Query, SelectItem,
};
use fuzzy_storage::BufferPool;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// One table binding visible to predicate evaluation.
#[derive(Debug, Clone)]
struct Frame {
    binding: String,
    schema: Schema,
    tuple: Tuple,
}

/// The naive evaluator. Holds a materialization cache so each stored table is
/// read once per query, while the evaluation itself remains the naive
/// cross-product/nested re-evaluation.
pub struct NaiveEvaluator<'a> {
    catalog: &'a Catalog,
    pool: &'a BufferPool,
    cache: RefCell<HashMap<String, Relation>>,
    comparisons: Cell<u64>,
}

impl<'a> NaiveEvaluator<'a> {
    /// Creates an evaluator over a catalog; page reads go through `pool`.
    pub fn new(catalog: &'a Catalog, pool: &'a BufferPool) -> NaiveEvaluator<'a> {
        NaiveEvaluator {
            catalog,
            pool,
            cache: RefCell::new(HashMap::new()),
            comparisons: Cell::new(0),
        }
    }

    /// Value-level fuzzy comparisons evaluated so far — the same unit the
    /// physical executor's `fuzzy_comparisons` counter uses (one per
    /// `compare`/`compare_similar` invocation), so `EXPLAIN ANALYZE` numbers
    /// are comparable across strategies.
    pub fn comparisons(&self) -> u64 {
        self.comparisons.get()
    }

    /// Evaluates a top-level query to a fuzzy relation.
    pub fn eval(&self, q: &Query) -> Result<Relation> {
        let mut env = Vec::new();
        self.eval_block(q, &mut env)
    }

    fn materialize(&self, table: &str) -> Result<Relation> {
        if let Some(rel) = self.cache.borrow().get(&table.to_lowercase()) {
            return Ok(rel.clone());
        }
        let stored = self
            .catalog
            .table(table)
            .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?;
        let rel = stored.to_relation(self.pool)?;
        self.cache.borrow_mut().insert(table.to_lowercase(), rel.clone());
        Ok(rel)
    }

    fn eval_block(&self, q: &Query, env: &mut Vec<Frame>) -> Result<Relation> {
        // Resolve FROM relations.
        let mut rels: Vec<(String, Relation)> = Vec::with_capacity(q.from.len());
        for t in &q.from {
            rels.push((t.binding_name().to_string(), self.materialize(&t.table)?));
        }
        let grouped = !q.group_by.is_empty()
            || !q.having.is_empty()
            || q.select.iter().any(|s| !matches!(s, SelectItem::Column(_)));

        // Row-level threshold: rows must be members (D > 0) unless an
        // explicit WITH D >= 0 keeps zero-degree rows for grouping (the JXT
        // trick of Section 5).
        let (z, strict) = match q.with_threshold {
            Some(t) => (Degree::new(t.z).map_err(EngineError::Fuzzy)?, t.strict),
            None => (Degree::ZERO, true),
        };

        let mut rows: Vec<(Vec<Value>, Degree)> = Vec::new();
        self.cross_product(env, &rels, 0, &mut |this, env| {
            let mut d = Degree::ONE;
            for f in env.iter().rev().take(rels.len()) {
                d = d.and(f.tuple.degree);
            }
            for p in &q.predicates {
                if !d.is_positive() && strict {
                    break; // cannot recover under fuzzy AND
                }
                d = d.and(this.eval_predicate(p, env)?);
            }
            if d.meets(z, strict) {
                let values = if grouped {
                    // Keep group keys and aggregate inputs; aggregation
                    // happens after enumeration.
                    group_row_values(q, env)?
                } else {
                    q.select
                        .iter()
                        .map(|item| match item {
                            SelectItem::Column(c) => resolve_column(env, c).cloned(),
                            _ => unreachable!("grouped handled above"),
                        })
                        .collect::<Result<Vec<_>>>()?
                };
                rows.push((values, d));
            }
            Ok(())
        })?;

        let schema = output_schema(q, &rels, self)?;
        let answer = if grouped {
            aggregate_rows(q, schema, rows, self.catalog.vocabulary())?
        } else {
            let mut rel = Relation::empty(schema);
            for (values, d) in rows {
                rel.insert_dedup_max(Tuple::new(values, d));
            }
            rel
        };
        // The WITH clause thresholds the final answer; for z = 0 strict this
        // is the membership criterion already enforced.
        let mut answer = if z > Degree::ZERO { answer.with_threshold(z, strict) } else { answer };
        // ORDER BY / LIMIT are presentation steps on the block's answer.
        if let Some(order) = &q.order_by {
            answer = match &order.key {
                OrderKey::Degree => answer.ordered_by_degree(order.descending),
                OrderKey::Column(c) => {
                    let idx = answer.schema().index_of(&c.column).ok_or_else(|| {
                        EngineError::Bind(format!("ORDER BY column {c} not in the select list"))
                    })?;
                    answer.ordered_by_column(idx, order.descending)
                }
            };
        }
        if let Some(n) = q.limit {
            answer = answer.limited(n);
        }
        Ok(answer)
    }

    /// Recursively enumerates the cross product of the FROM relations,
    /// pushing each combination as frames onto `env`.
    fn cross_product(
        &self,
        env: &mut Vec<Frame>,
        rels: &[(String, Relation)],
        idx: usize,
        f: &mut dyn FnMut(&Self, &mut Vec<Frame>) -> Result<()>,
    ) -> Result<()> {
        if idx == rels.len() {
            return f(self, env);
        }
        let (binding, rel) = &rels[idx];
        for t in rel.tuples() {
            env.push(Frame {
                binding: binding.clone(),
                schema: rel.schema().clone(),
                tuple: t.clone(),
            });
            let r = self.cross_product(env, rels, idx + 1, f);
            env.pop();
            r?;
        }
        Ok(())
    }

    /// Degree to which a single tuple of `table` satisfies a predicate
    /// conjunction (sub-queries re-evaluated against the catalog). Used by
    /// DELETE/UPDATE matching; the tuple's own membership degree is *not*
    /// included — matching is about the condition, as in the paper's
    /// predicate semantics.
    pub fn match_degree(
        &self,
        binding: &str,
        schema: &Schema,
        tuple: &Tuple,
        preds: &[Predicate],
    ) -> Result<Degree> {
        let mut env = vec![Frame {
            binding: binding.to_string(),
            schema: schema.clone(),
            tuple: tuple.clone(),
        }];
        let mut d = Degree::ONE;
        for p in preds {
            d = d.and(self.eval_predicate(p, &mut env)?);
            if !d.is_positive() {
                break;
            }
        }
        Ok(d)
    }

    fn eval_predicate(&self, p: &Predicate, env: &mut Vec<Frame>) -> Result<Degree> {
        match p {
            Predicate::Compare { lhs, op, rhs } => {
                let (l, r) = resolve_pair(env, lhs, rhs, self.catalog.vocabulary())?;
                self.comparisons.set(self.comparisons.get() + 1);
                Ok(l.compare(*op, &r))
            }
            Predicate::Similar { lhs, rhs, tolerance } => {
                let (l, r) = resolve_pair(env, lhs, rhs, self.catalog.vocabulary())?;
                self.comparisons.set(self.comparisons.get() + 1);
                Ok(l.compare_similar(&r, *tolerance))
            }
            Predicate::In { lhs, negated, query } => {
                let t = self.eval_block(query, env)?;
                single_column(&t)?;
                let v = resolve_operand_vs_relation(env, lhs, &t, self.catalog.vocabulary())?;
                self.comparisons.set(self.comparisons.get() + t.len() as u64);
                let d_in = Degree::any(
                    t.tuples().iter().map(|z| z.degree.and(v.compare(CmpOp::Eq, &z.values[0]))),
                );
                Ok(if *negated { d_in.not() } else { d_in })
            }
            Predicate::Quantified { lhs, op, quantifier, query } => {
                let t = self.eval_block(query, env)?;
                single_column(&t)?;
                let v = resolve_operand_vs_relation(env, lhs, &t, self.catalog.vocabulary())?;
                self.comparisons.set(self.comparisons.get() + t.len() as u64);
                match quantifier {
                    // d(v op ALL F) = 1 − max_z min(μ_F(z), 1 − d(v op z)); 1 on empty F.
                    Quantifier::All => Ok(Degree::any(
                        t.tuples().iter().map(|z| z.degree.and(v.compare(*op, &z.values[0]).not())),
                    )
                    .not()),
                    // d(v op SOME F) = max_z min(μ_F(z), d(v op z)); 0 on empty F.
                    Quantifier::Some => Ok(Degree::any(
                        t.tuples().iter().map(|z| z.degree.and(v.compare(*op, &z.values[0]))),
                    )),
                }
            }
            Predicate::AggSubquery { lhs, op, query } => {
                let t = self.eval_block(query, env)?;
                single_column(&t)?;
                if t.len() > 1 {
                    return Err(EngineError::Unsupported(format!(
                        "scalar sub-query returned {} rows (a grouped sub-query \
                         cannot feed a comparison)",
                        t.len()
                    )));
                }
                match t.tuples().first() {
                    // Empty aggregate (non-COUNT): NULL, nothing satisfies.
                    None => Ok(Degree::ZERO),
                    Some(a) => {
                        let v =
                            resolve_operand_vs_relation(env, lhs, &t, self.catalog.vocabulary())?;
                        self.comparisons.set(self.comparisons.get() + 1);
                        // D(A(r)) participates in the conjunction; Fuzzy SQL
                        // fixes it at 1 but the degree is carried regardless.
                        Ok(a.degree.and(v.compare(*op, &a.values[0])))
                    }
                }
            }
            Predicate::Exists { negated, query } => {
                let t = self.eval_block(query, env)?;
                let d = Degree::any(t.tuples().iter().map(|z| z.degree));
                Ok(if *negated { d.not() } else { d })
            }
        }
    }
}

/// Values captured per row for a grouped/aggregated query: the GROUP BY keys
/// followed by every select-list aggregate's input column, followed by every
/// HAVING aggregate's input column.
fn group_row_values(q: &Query, env: &[Frame]) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    for c in &q.group_by {
        out.push(resolve_column(env, c)?.clone());
    }
    for item in &q.select {
        match item {
            SelectItem::Aggregate(_, c) => out.push(resolve_column(env, c)?.clone()),
            SelectItem::Column(_) | SelectItem::MinDegree | SelectItem::CountStar => {}
        }
    }
    for h in &q.having {
        for o in [&h.lhs, &h.rhs] {
            if let HavingOperand::Aggregate(_, c) = o {
                out.push(resolve_column(env, c)?.clone());
            }
        }
    }
    Ok(out)
}

/// Performs grouping and aggregation over captured rows.
fn aggregate_rows(
    q: &Query,
    schema: Schema,
    rows: Vec<(Vec<Value>, Degree)>,
    vocab: &Vocabulary,
) -> Result<Relation> {
    let key_len = q.group_by.len();
    // Group rows by key values, preserving first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<_>, ValueHashBuilder> = HashMap::default();
    for (values, d) in rows {
        let key = values[..key_len].to_vec();
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push((values, d));
    }
    // A group-by-less aggregate query always produces exactly one group,
    // possibly empty.
    if key_len == 0 && order.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), Vec::new());
    }

    // Index where HAVING aggregate inputs start in a captured row.
    let select_agg_count =
        q.select.iter().filter(|i| matches!(i, SelectItem::Aggregate(..))).count();

    let mut rel = Relation::empty(schema);
    'group: for key in order {
        let members = &groups[&key];
        let mut out_values: Vec<Value> = Vec::new();
        let mut degree = Degree::ONE;
        let mut agg_input_idx = key_len;
        for item in &q.select {
            match item {
                SelectItem::Column(c) => {
                    // Must be a group key.
                    let pos = q.group_by.iter().position(|g| g == c).ok_or_else(|| {
                        EngineError::Unsupported(format!("selected column {c} is not in GROUP BY"))
                    })?;
                    out_values.push(key[pos].clone());
                }
                SelectItem::MinDegree => {
                    // MIN(D): the group's degree becomes the minimum member
                    // degree (Query JXT / T1 of Sections 5 and 7).
                    degree =
                        degree.and(members.iter().map(|(_, d)| *d).fold(Degree::ONE, Degree::and));
                }
                SelectItem::CountStar => {
                    out_values.push(Value::number(members.len() as f64));
                }
                SelectItem::Aggregate(agg, _) => {
                    let inputs: Vec<&Value> =
                        members.iter().map(|(v, _)| &v[agg_input_idx]).collect();
                    agg_input_idx += 1;
                    // The aggregate applies to the fuzzy *set* of values:
                    // distinct values, ignoring NULLs (Section 6).
                    let mut distinct: Vec<&Value> = Vec::new();
                    for v in inputs {
                        if !v.is_null() && !distinct.contains(&v) {
                            distinct.push(v);
                        }
                    }
                    match apply_aggregate(*agg, &distinct)? {
                        Some(v) => out_values.push(v),
                        // Empty non-COUNT aggregate: NULL result; the paper's
                        // semantics drop the tuple (T2 "contains no tuple
                        // for u").
                        None => continue 'group,
                    }
                }
            }
        }
        // HAVING: each predicate's degree joins the group's conjunction.
        let mut having_agg_idx = key_len + select_agg_count;
        for h in &q.having {
            let lhs = having_value(&h.lhs, q, &key, members, &mut having_agg_idx)?;
            let rhs = having_value(&h.rhs, q, &key, members, &mut having_agg_idx)?;
            let (lhs, rhs) = resolve_having_terms(lhs, rhs, vocab);
            degree = degree.and(lhs.compare(h.op, &rhs));
            if !degree.is_positive() {
                continue 'group;
            }
        }
        rel.insert_dedup_max(Tuple::new(out_values, degree));
    }
    Ok(rel)
}

/// A HAVING operand value, either computed from the group or pending term
/// resolution.
enum HavingValue {
    Val(Value),
    Term(String),
}

fn having_value(
    o: &HavingOperand,
    q: &Query,
    key: &[Value],
    members: &[(Vec<Value>, Degree)],
    agg_idx: &mut usize,
) -> Result<HavingValue> {
    Ok(match o {
        HavingOperand::Aggregate(agg, _) => {
            let inputs: Vec<&Value> = members.iter().map(|(v, _)| &v[*agg_idx]).collect();
            *agg_idx += 1;
            let mut distinct: Vec<&Value> = Vec::new();
            for v in inputs {
                if !v.is_null() && !distinct.contains(&v) {
                    distinct.push(v);
                }
            }
            HavingValue::Val(apply_aggregate(*agg, &distinct)?.unwrap_or(Value::Null))
        }
        HavingOperand::CountStar => HavingValue::Val(Value::number(members.len() as f64)),
        HavingOperand::Column(c) => {
            let pos = q.group_by.iter().position(|g| g == c).ok_or_else(|| {
                EngineError::Unsupported(format!("HAVING column {c} is not in GROUP BY"))
            })?;
            HavingValue::Val(key[pos].clone())
        }
        HavingOperand::Number(n) => HavingValue::Val(Value::number(*n)),
        HavingOperand::Term(t) => HavingValue::Term(t.clone()),
    })
}

/// Resolves pending HAVING terms by the partner's runtime type, mirroring
/// WHERE-clause term binding.
fn resolve_having_terms(lhs: HavingValue, rhs: HavingValue, vocab: &Vocabulary) -> (Value, Value) {
    let settle = |v: HavingValue, partner_is_text: bool| -> Value {
        match v {
            HavingValue::Val(v) => v,
            HavingValue::Term(t) => {
                if partner_is_text {
                    Value::text(t)
                } else if let Ok(shape) = vocab.resolve(&t) {
                    Value::fuzzy(shape)
                } else {
                    Value::text(t)
                }
            }
        }
    };
    let lhs_text = matches!(&lhs, HavingValue::Val(Value::Text(_)));
    let rhs_text = matches!(&rhs, HavingValue::Val(Value::Text(_)));
    (settle(lhs, rhs_text), settle(rhs, lhs_text))
}

/// Applies an aggregate to the distinct member values. `None` encodes the
/// NULL result of an empty non-COUNT aggregate.
pub(crate) fn apply_aggregate(agg: AggFunc, distinct: &[&Value]) -> Result<Option<Value>> {
    if agg == AggFunc::Count {
        return Ok(Some(Value::number(distinct.len() as f64)));
    }
    if distinct.is_empty() {
        return Ok(None);
    }
    let dists: Vec<Trapezoid> = distinct
        .iter()
        .map(|v| {
            v.as_distribution().ok_or_else(|| {
                EngineError::Unsupported(format!(
                    "aggregate {} over non-numeric value {v}",
                    agg.name()
                ))
            })
        })
        .collect::<Result<_>>()?;
    let out = match agg {
        AggFunc::Sum => arith::sum(&dists),
        AggFunc::Avg => arith::avg(&dists),
        AggFunc::Min => arith::fuzzy_min(&dists),
        AggFunc::Max => arith::fuzzy_max(&dists),
        AggFunc::Count => unreachable!("handled above"),
    };
    Ok(out.map(Value::fuzzy))
}

/// Resolves a column against the environment: innermost frame first; a
/// qualifier must match a frame binding. The pseudo-column `R.D` resolves to
/// the tuple's membership degree — the paper's Section 5 notes that "a
/// membership degree attribute can be used by itself as a predicate"
/// (Query JXT), and this is the read side of that device. Only available
/// when the relation has no ordinary attribute named `D`.
fn resolve_column<'e>(env: &'e [Frame], c: &ColumnRef) -> Result<&'e Value> {
    resolve_column_or_degree(env, c).map(|r| match r {
        ColumnValue::Attr(v) => v,
        ColumnValue::Degree(_) => unreachable!("caller used resolve_column_value"),
    })
}

/// A resolved column: an attribute value, or the membership degree.
enum ColumnValue<'e> {
    Attr(&'e Value),
    Degree(Degree),
}

fn resolve_column_or_degree<'e>(env: &'e [Frame], c: &ColumnRef) -> Result<ColumnValue<'e>> {
    for f in env.iter().rev() {
        if let Some(t) = &c.table {
            if !f.binding.eq_ignore_ascii_case(t) {
                continue;
            }
            if let Some(idx) = f.schema.index_of(&c.column) {
                return Ok(ColumnValue::Attr(f.tuple.value(idx)));
            }
            if c.is_degree() {
                return Ok(ColumnValue::Degree(f.tuple.degree));
            }
            return Err(EngineError::Bind(format!("no attribute {} in {}", c.column, f.binding)));
        }
        if let Some(idx) = f.schema.index_of(&c.column) {
            return Ok(ColumnValue::Attr(f.tuple.value(idx)));
        }
    }
    Err(EngineError::Bind(format!("unresolved column {c}")))
}

/// Resolves a column to an owned value, mapping the degree pseudo-column to
/// a crisp number.
fn resolve_column_value(env: &[Frame], c: &ColumnRef) -> Result<Value> {
    Ok(match resolve_column_or_degree(env, c)? {
        ColumnValue::Attr(v) => v.clone(),
        ColumnValue::Degree(d) => Value::number(d.value()),
    })
}

/// Resolves two compare operands, deciding how quoted terms bind: against a
/// text value they are text; otherwise they are linguistic terms looked up in
/// the vocabulary.
fn resolve_pair(
    env: &[Frame],
    lhs: &Operand,
    rhs: &Operand,
    vocab: &Vocabulary,
) -> Result<(Value, Value)> {
    let l0 = pre_resolve(env, lhs)?;
    let r0 = pre_resolve(env, rhs)?;
    let l = finish_resolve(l0, &r0, vocab)?;
    let r = finish_resolve(r0, &Pre::Val(l.clone()), vocab)?;
    Ok((l, r))
}

/// Intermediate operand resolution: columns and numbers become values; terms
/// stay pending until the partner's type is known.
enum Pre {
    Val(Value),
    Term(String),
}

fn pre_resolve(env: &[Frame], o: &Operand) -> Result<Pre> {
    Ok(match o {
        Operand::Column(c) => Pre::Val(resolve_column_value(env, c)?),
        Operand::Number(n) => Pre::Val(Value::number(*n)),
        Operand::Term(t) => Pre::Term(t.clone()),
        Operand::FuzzyLiteral(a, b, c, d) => Pre::Val(fuzzy_literal_value(*a, *b, *c, *d)?),
    })
}

/// Materializes an inline fuzzy literal, validating its breakpoints.
pub(crate) fn fuzzy_literal_value(a: f64, b: f64, c: f64, d: f64) -> Result<Value> {
    let t = Trapezoid::new(a, b, c, d).map_err(EngineError::Fuzzy)?;
    Ok(Value::fuzzy(t))
}

fn finish_resolve(p: Pre, partner: &Pre, vocab: &Vocabulary) -> Result<Value> {
    match p {
        Pre::Val(v) => Ok(v),
        Pre::Term(t) => {
            let partner_is_text = matches!(partner, Pre::Val(Value::Text(_)));
            if partner_is_text {
                Ok(Value::text(t))
            } else if let Ok(shape) = vocab.resolve(&t) {
                Ok(Value::fuzzy(shape))
            } else {
                // Not in the vocabulary and not compared to text: treat as a
                // plain string (e.g. comparing two term literals).
                Ok(Value::text(t))
            }
        }
    }
}

/// Resolves the LHS of a sub-query predicate, using the sub-query's column
/// type to decide term binding.
fn resolve_operand_vs_relation(
    env: &[Frame],
    lhs: &Operand,
    t: &Relation,
    vocab: &Vocabulary,
) -> Result<Value> {
    match lhs {
        Operand::Column(c) => Ok(resolve_column(env, c)?.clone()),
        Operand::Number(n) => Ok(Value::number(*n)),
        Operand::FuzzyLiteral(a, b, c, d) => fuzzy_literal_value(*a, *b, *c, *d),
        Operand::Term(term) => {
            let text_col = t.schema().attr(0).ty == AttrType::Text;
            if text_col {
                Ok(Value::text(term.clone()))
            } else if let Ok(shape) = vocab.resolve(term) {
                Ok(Value::fuzzy(shape))
            } else {
                Ok(Value::text(term.clone()))
            }
        }
    }
}

fn single_column(t: &Relation) -> Result<()> {
    if t.schema().len() == 1 {
        Ok(())
    } else {
        Err(EngineError::Unsupported(format!(
            "sub-query must select a single column, got {}",
            t.schema().len()
        )))
    }
}

/// Derives the output schema of a query.
fn output_schema(
    q: &Query,
    rels: &[(String, Relation)],
    _ev: &NaiveEvaluator<'_>,
) -> Result<Schema> {
    let mut attrs = Vec::new();
    for item in &q.select {
        match item {
            SelectItem::Column(c) => {
                let (name, ty) = column_meta(rels, c)?;
                attrs.push(Attribute::new(name, ty));
            }
            SelectItem::Aggregate(a, c) => {
                let (name, ty) = column_meta(rels, c)?;
                let ty = if *a == AggFunc::Count { AttrType::Number } else { ty };
                attrs.push(Attribute::new(format!("{}({})", a.name(), name), ty));
            }
            SelectItem::MinDegree => {} // folds into the degree attribute
            SelectItem::CountStar => attrs.push(Attribute::new("COUNT(*)", AttrType::Number)),
        }
    }
    Ok(Schema::new(attrs))
}

fn column_meta(rels: &[(String, Relation)], c: &ColumnRef) -> Result<(String, AttrType)> {
    for (binding, rel) in rels.iter().rev() {
        if let Some(t) = &c.table {
            if !binding.eq_ignore_ascii_case(t) {
                continue;
            }
        }
        if let Some(idx) = rel.schema().index_of(&c.column) {
            let a = rel.schema().attr(idx);
            return Ok((a.name.clone(), a.ty));
        }
        if c.table.is_some() {
            return Err(EngineError::Bind(format!("no attribute {} in {}", c.column, binding)));
        }
    }
    // The column may belong to an outer block (correlated select is not
    // supported) — report cleanly.
    Err(EngineError::Bind(format!("unresolved select column {c}")))
}
