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
//!
//! The re-evaluation is literal, but it copies nothing it does not return.
//! Each stored table is read once per statement into a shared [`Rc`]
//! materialization; the frames a block pushes while it enumerates its cross
//! product are borrows of a binding name, a schema and a tuple, so a nested
//! block's environment is its outer frames plus its own (a few pointers per
//! frame); and each block's rows are duplicate-eliminated with the hashed
//! [`Relation::from_dedup_rows`]. None of this changes which predicates run,
//! in which order, or where a conjunction short-circuits, so answers and the
//! comparison counter are those of the literal evaluation.
//!
//! The evaluator returns the top-level block's answer without presentation:
//! the statement layer applies the session threshold and then ORDER BY and
//! LIMIT (`order_and_limit`), as it does for every strategy. ORDER BY and
//! LIMIT inside a nested block (which the unnester rejects) are applied here,
//! to that block's answer.

use crate::error::{EngineError, Result};
use fuzzy_core::hash::ValueHashBuilder;
use fuzzy_core::{arith, CmpOp, Degree, Trapezoid, Value, Vocabulary};
use fuzzy_rel::{AttrType, Attribute, Catalog, Relation, Schema, Tuple};
use fuzzy_sql::{
    AggFunc, ColumnRef, HavingOperand, Operand, OrderKey, Predicate, Quantifier, Query, SelectItem,
};
use fuzzy_storage::BufferPool;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// One table binding visible to predicate evaluation: borrows of the
/// binding name, the relation's schema and the current tuple.
#[derive(Debug, Clone, Copy)]
struct Frame<'e> {
    binding: &'e str,
    schema: &'e Schema,
    tuple: &'e Tuple,
}

/// The naive evaluator. Holds a materialization cache so each stored table is
/// read once per query and shared by every block evaluation that scans it,
/// while the evaluation itself remains the naive cross-product/nested
/// re-evaluation. Frames borrow, block answers dedup by hash, and only
/// nested blocks apply their own ORDER BY/LIMIT (see the module docs).
pub struct NaiveEvaluator<'a> {
    catalog: &'a Catalog,
    pool: &'a BufferPool,
    cache: RefCell<HashMap<String, Rc<Relation>>>,
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

    /// Evaluates a top-level query to its fuzzy relation, before
    /// presentation: the top-level ORDER BY and LIMIT are left to the
    /// caller, which applies them after any session threshold.
    pub fn eval(&self, q: &Query) -> Result<Relation> {
        self.eval_block(q, &[])
    }

    fn materialize(&self, table: &str) -> Result<Rc<Relation>> {
        let key = table.to_lowercase();
        if let Some(rel) = self.cache.borrow().get(&key) {
            return Ok(Rc::clone(rel));
        }
        let stored = self
            .catalog
            .table(table)
            .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?;
        let rel = Rc::new(stored.to_relation(self.pool)?);
        self.cache.borrow_mut().insert(key, Rc::clone(&rel));
        Ok(rel)
    }

    /// Evaluates a nested block for the current outer frames: its answer
    /// with its own ORDER BY and LIMIT applied.
    fn eval_nested(&self, q: &Query, outer: &[Frame<'_>]) -> Result<Relation> {
        order_and_limit(q, self.eval_block(q, outer)?)
    }

    /// Evaluates one block against the outer frames `outer`, without
    /// presentation.
    fn eval_block(&self, q: &Query, outer: &[Frame<'_>]) -> Result<Relation> {
        // Resolve FROM relations.
        let rels = q
            .from
            .iter()
            .map(|t| Ok((t.binding_name(), self.materialize(&t.table)?)))
            .collect::<Result<Vec<_>>>()?;
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
        let mut env = Vec::with_capacity(outer.len() + rels.len());
        env.extend_from_slice(outer);
        self.cross_product(&mut env, &rels, &mut |env| {
            let mut d = Degree::ONE;
            for f in env.iter().rev().take(rels.len()) {
                d = d.and(f.tuple.degree);
            }
            for p in &q.predicates {
                if !d.is_positive() && strict {
                    break; // cannot recover under fuzzy AND
                }
                d = d.and(self.eval_predicate(p, env)?);
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

        let schema = output_schema(q, &rels)?;
        if !grouped {
            // Every row already meets the WITH clause, so their fuzzy OR
            // does too: the answer needs no further threshold.
            return Ok(Relation::from_dedup_rows(schema, rows));
        }
        let answer = aggregate_rows(q, schema, rows, self.catalog.vocabulary())?;
        // The WITH clause thresholds the groups; for z = 0 strict this is
        // the membership criterion already enforced.
        Ok(if z > Degree::ZERO { answer.with_threshold(z, strict) } else { answer })
    }

    /// Recursively enumerates the cross product of the FROM relations,
    /// pushing each combination as frames onto `env`.
    fn cross_product<'e>(
        &self,
        env: &mut Vec<Frame<'e>>,
        rels: &'e [(&'e str, Rc<Relation>)],
        f: &mut dyn FnMut(&[Frame<'e>]) -> Result<()>,
    ) -> Result<()> {
        let Some(((binding, rel), rest)) = rels.split_first() else {
            return f(env);
        };
        for tuple in rel.tuples() {
            env.push(Frame { binding, schema: rel.schema(), tuple });
            let r = self.cross_product(env, rest, f);
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
        let env = [Frame { binding, schema, tuple }];
        let mut d = Degree::ONE;
        for p in preds {
            d = d.and(self.eval_predicate(p, &env)?);
            if !d.is_positive() {
                break;
            }
        }
        Ok(d)
    }

    fn eval_predicate(&self, p: &Predicate, env: &[Frame<'_>]) -> Result<Degree> {
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
                let t = self.eval_nested(query, env)?;
                single_column(&t)?;
                let v = resolve_operand_vs_relation(env, lhs, &t, self.catalog.vocabulary())?;
                self.comparisons.set(self.comparisons.get() + t.len() as u64);
                let d_in = Degree::any(
                    t.tuples().iter().map(|z| z.degree.and(v.compare(CmpOp::Eq, &z.values[0]))),
                );
                Ok(if *negated { d_in.not() } else { d_in })
            }
            Predicate::Quantified { lhs, op, quantifier, query } => {
                let t = self.eval_nested(query, env)?;
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
                let t = self.eval_nested(query, env)?;
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
                let t = self.eval_nested(query, env)?;
                let d = Degree::any(t.tuples().iter().map(|z| z.degree));
                Ok(if *negated { d.not() } else { d })
            }
        }
    }
}

/// Values captured per row for a grouped/aggregated query: the GROUP BY keys
/// followed by every select-list aggregate's input column, followed by every
/// HAVING aggregate's input column.
fn group_row_values(q: &Query, env: &[Frame<'_>]) -> Result<Vec<Value>> {
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
    // Group rows by key values, preserving first-seen order. A group's key
    // is the key prefix of its first member's values.
    let mut groups: Vec<Vec<(Vec<Value>, Degree)>> = Vec::new();
    let mut index: HashMap<Vec<Value>, usize, ValueHashBuilder> = HashMap::default();
    for (values, d) in rows {
        let g = match index.get(&values[..key_len]) {
            Some(&g) => g,
            None => {
                index.insert(values[..key_len].to_vec(), groups.len());
                groups.push(Vec::new());
                groups.len() - 1
            }
        };
        groups[g].push((values, d));
    }
    // A group-by-less aggregate query always produces exactly one group,
    // possibly empty.
    if key_len == 0 && groups.is_empty() {
        groups.push(Vec::new());
    }

    // Index where HAVING aggregate inputs start in a captured row.
    let select_agg_count =
        q.select.iter().filter(|i| matches!(i, SelectItem::Aggregate(..))).count();

    let mut out_rows: Vec<(Vec<Value>, Degree)> = Vec::with_capacity(groups.len());
    'group: for members in &groups {
        let key = members.first().map_or(&[][..], |(values, _)| &values[..key_len]);
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
            let lhs = having_value(&h.lhs, q, key, members, &mut having_agg_idx)?;
            let rhs = having_value(&h.rhs, q, key, members, &mut having_agg_idx)?;
            let (lhs, rhs) = resolve_having_terms(lhs, rhs, vocab);
            degree = degree.and(lhs.compare(h.op, &rhs));
            if !degree.is_positive() {
                continue 'group;
            }
        }
        out_rows.push((out_values, degree));
    }
    Ok(Relation::from_dedup_rows(schema, out_rows))
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
fn resolve_column<'e>(env: &[Frame<'e>], c: &ColumnRef) -> Result<&'e Value> {
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

fn resolve_column_or_degree<'e>(env: &[Frame<'e>], c: &ColumnRef) -> Result<ColumnValue<'e>> {
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

/// Resolves a column to its value, mapping the degree pseudo-column to a
/// crisp number.
fn resolve_column_value<'e>(env: &[Frame<'e>], c: &ColumnRef) -> Result<Cow<'e, Value>> {
    Ok(match resolve_column_or_degree(env, c)? {
        ColumnValue::Attr(v) => Cow::Borrowed(v),
        ColumnValue::Degree(d) => Cow::Owned(Value::number(d.value())),
    })
}

/// Resolves two compare operands, deciding how quoted terms bind: against a
/// text value they are text; otherwise they are linguistic terms looked up in
/// the vocabulary. Column values are borrowed from the frames.
fn resolve_pair<'e>(
    env: &[Frame<'e>],
    lhs: &Operand,
    rhs: &Operand,
    vocab: &Vocabulary,
) -> Result<(Cow<'e, Value>, Cow<'e, Value>)> {
    let l0 = pre_resolve(env, lhs)?;
    let r0 = pre_resolve(env, rhs)?;
    let l = finish_resolve(l0, r0.is_text(), vocab)?;
    let r = finish_resolve(r0, matches!(*l, Value::Text(_)), vocab)?;
    Ok((l, r))
}

/// Intermediate operand resolution: columns and numbers become values; terms
/// stay pending until the partner's type is known.
enum Pre<'e, 'q> {
    Val(Cow<'e, Value>),
    Term(&'q str),
}

impl Pre<'_, '_> {
    fn is_text(&self) -> bool {
        matches!(self, Pre::Val(v) if matches!(**v, Value::Text(_)))
    }
}

fn pre_resolve<'e, 'q>(env: &[Frame<'e>], o: &'q Operand) -> Result<Pre<'e, 'q>> {
    Ok(match o {
        Operand::Column(c) => Pre::Val(resolve_column_value(env, c)?),
        Operand::Number(n) => Pre::Val(Cow::Owned(Value::number(*n))),
        Operand::Term(t) => Pre::Term(t),
        Operand::FuzzyLiteral(a, b, c, d) => {
            Pre::Val(Cow::Owned(fuzzy_literal_value(*a, *b, *c, *d)?))
        }
    })
}

/// Materializes an inline fuzzy literal, validating its breakpoints.
pub(crate) fn fuzzy_literal_value(a: f64, b: f64, c: f64, d: f64) -> Result<Value> {
    let t = Trapezoid::new(a, b, c, d).map_err(EngineError::Fuzzy)?;
    Ok(Value::fuzzy(t))
}

fn finish_resolve<'e>(
    p: Pre<'e, '_>,
    partner_is_text: bool,
    vocab: &Vocabulary,
) -> Result<Cow<'e, Value>> {
    match p {
        Pre::Val(v) => Ok(v),
        Pre::Term(t) => Ok(Cow::Owned(if partner_is_text {
            Value::text(t)
        } else if let Ok(shape) = vocab.resolve(t) {
            Value::fuzzy(shape)
        } else {
            // Not in the vocabulary and not compared to text: treat as a
            // plain string (e.g. comparing two term literals).
            Value::text(t)
        })),
    }
}

/// Resolves the LHS of a sub-query predicate, using the sub-query's column
/// type to decide term binding.
fn resolve_operand_vs_relation<'e>(
    env: &[Frame<'e>],
    lhs: &Operand,
    t: &Relation,
    vocab: &Vocabulary,
) -> Result<Cow<'e, Value>> {
    match lhs {
        Operand::Column(c) => Ok(Cow::Borrowed(resolve_column(env, c)?)),
        Operand::Number(n) => Ok(Cow::Owned(Value::number(*n))),
        Operand::FuzzyLiteral(a, b, c, d) => Ok(Cow::Owned(fuzzy_literal_value(*a, *b, *c, *d)?)),
        Operand::Term(term) => {
            let text_col = t.schema().attr(0).ty == AttrType::Text;
            Ok(Cow::Owned(if text_col {
                Value::text(term.clone())
            } else if let Ok(shape) = vocab.resolve(term) {
                Value::fuzzy(shape)
            } else {
                Value::text(term.clone())
            }))
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
fn output_schema(q: &Query, rels: &[(&str, Rc<Relation>)]) -> Result<Schema> {
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

fn column_meta(rels: &[(&str, Rc<Relation>)], c: &ColumnRef) -> Result<(String, AttrType)> {
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
            return Err(EngineError::Bind(format!("no attribute {} in {binding}", c.column)));
        }
    }
    // The column may belong to an outer block (correlated select is not
    // supported) — report cleanly.
    Err(EngineError::Bind(format!("unresolved select column {c}")))
}

/// The presentation steps ORDER BY and LIMIT, applied to a block's answer.
pub(crate) fn order_and_limit(q: &Query, mut answer: Relation) -> Result<Relation> {
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
