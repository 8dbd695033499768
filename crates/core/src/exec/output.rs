//! Project/emit: the plan root. Collects the projected answer rows of the
//! upstream pipeline, deduplicates by fuzzy OR (max) — the projection
//! semantics every plan root must deliver (`V-DUP-MAX`) — and applies the
//! final `WITH D > z` threshold exactly.

use crate::metrics::OperatorMetrics;
use fuzzy_core::{Degree, Value};
use fuzzy_rel::{Relation, Schema, Tuple};
use fuzzy_sql::Threshold;

/// Projects a tuple's values through resolved indices.
pub(crate) fn project(t: &Tuple, idx: &[usize]) -> Vec<Value> {
    idx.iter().map(|&i| t.values[i].clone()).collect()
}

/// Final answer assembly: fuzzy-OR dedup plus the `WITH` threshold.
/// `tuples_in` is the number of rows the upstream operator delivered, after
/// a join's answer sink folded consecutive equal rows; `tuples_out` the
/// deduplicated, thresholded answer cardinality.
pub(crate) fn finish(
    schema: Schema,
    rows: Vec<(Vec<Value>, Degree)>,
    threshold: Option<Threshold>,
    m: &mut OperatorMetrics,
) -> Relation {
    m.tuples_in = rows.len() as u64;
    let rel = Relation::from_dedup_rows(schema, rows);
    // The exact filter at the plan root: a pushed-down bound inside the
    // pipeline only ever pre-prunes rows this filter rejects anyway.
    let rel = match threshold {
        Some(t) => rel.with_threshold(Degree::clamped(t.z), t.strict),
        None => rel,
    };
    m.tuples_out = rel.len() as u64;
    rel
}
