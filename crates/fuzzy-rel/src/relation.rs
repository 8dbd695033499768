//! In-memory fuzzy relations.
//!
//! A fuzzy relation is a fuzzy set of tuples. Query answers keep one copy of
//! each distinct tuple value with the *maximum* degree among its duplicates
//! (fuzzy OR — Section 2.2: "the highest membership degree of the identical
//! name pairs will be chosen for the answer"), and a `WITH D > z` clause
//! thresholds membership.

use crate::schema::Schema;
use crate::tuple::Tuple;
use fuzzy_core::hash::ValueHashBuilder;
use fuzzy_core::{Degree, Value};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

/// An in-memory fuzzy relation: a schema plus a fuzzy set of tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation { schema, tuples: Vec::new() }
    }

    /// Creates a relation from tuples, dropping non-members (degree 0).
    pub fn from_tuples(schema: Schema, tuples: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut r = Relation::empty(schema);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples, in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of member tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the relation has no member tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts a tuple if it is a member (degree > 0). Duplicates are kept;
    /// use [`Relation::dedup_max`] or [`Relation::insert_dedup_max`] for the
    /// fuzzy-OR answer semantics.
    pub fn insert(&mut self, t: Tuple) {
        debug_assert_eq!(t.values.len(), self.schema.len(), "tuple arity mismatch");
        if t.degree.is_positive() {
            self.tuples.push(t);
        }
    }

    /// Inserts with fuzzy-OR duplicate elimination: if a tuple with identical
    /// values exists, keeps the higher degree.
    pub fn insert_dedup_max(&mut self, t: Tuple) {
        if !t.degree.is_positive() {
            return;
        }
        if let Some(existing) = self.tuples.iter_mut().find(|e| e.values == t.values) {
            existing.degree = existing.degree.or(t.degree);
        } else {
            self.tuples.push(t);
        }
    }

    /// Builds a relation from `(values, degree)` rows with fuzzy-OR duplicate
    /// elimination, preserving first-occurrence order. This is the hash-based
    /// bulk equivalent of [`Relation::insert_dedup_max`] for large answers.
    /// Each distinct row's values move into the index (nothing is cloned);
    /// degrees merge in a side vector, and the tuples are rebuilt in
    /// first-occurrence order at the end.
    pub fn from_dedup_rows<I>(schema: Schema, rows: I) -> Relation
    where
        I: IntoIterator<Item = (Vec<Value>, Degree)>,
    {
        let mut index: HashMap<Vec<Value>, usize, ValueHashBuilder> = HashMap::default();
        let mut degrees: Vec<Degree> = Vec::new();
        for (values, degree) in rows {
            if !degree.is_positive() {
                continue;
            }
            match index.entry(values) {
                Entry::Occupied(e) => {
                    let d = &mut degrees[*e.get()];
                    *d = d.or(degree);
                }
                Entry::Vacant(e) => {
                    e.insert(degrees.len());
                    degrees.push(degree);
                }
            }
        }
        let mut tuples: Vec<Tuple> =
            degrees.into_iter().map(|d| Tuple::new(Vec::new(), d)).collect();
        for (values, i) in index {
            tuples[i].values = values;
        }
        Relation { schema, tuples }
    }

    /// Returns a copy with duplicates merged by maximum degree (fuzzy OR),
    /// preserving first-occurrence order.
    pub fn dedup_max(&self) -> Relation {
        Relation::from_dedup_rows(
            self.schema.clone(),
            self.tuples.iter().map(|t| (t.values.clone(), t.degree)),
        )
    }

    /// Returns a copy with only tuples meeting `WITH D > z` (or `>= z` when
    /// `strict` is false).
    pub fn with_threshold(&self, z: Degree, strict: bool) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.iter().filter(|t| t.degree.meets(z, strict)).cloned().collect(),
        }
    }

    /// Projects onto the attributes at `indices` (schema follows), keeping
    /// degrees; duplicates are *not* merged (callers decide when to dedup).
    pub fn project(&self, indices: &[usize]) -> Relation {
        let schema = Schema::new(indices.iter().map(|&i| self.schema.attr(i).clone()).collect());
        let tuples = self
            .tuples
            .iter()
            .map(|t| Tuple::new(indices.iter().map(|&i| t.values[i].clone()).collect(), t.degree))
            .collect();
        Relation { schema, tuples }
    }

    /// Looks up the degree of a tuple with exactly these values (after
    /// dedup-max this is the fuzzy membership function of the relation).
    pub fn degree_of(&self, values: &[Value]) -> Degree {
        self.tuples
            .iter()
            .filter(|t| t.values.as_slice() == values)
            .map(|t| t.degree)
            .fold(Degree::ZERO, Degree::or)
    }

    /// Returns a copy ordered by membership degree (stable), ascending or
    /// descending — `ORDER BY D [DESC]`, the possibilistic ranking of
    /// answers.
    pub fn ordered_by_degree(&self, descending: bool) -> Relation {
        let mut tuples = self.tuples.clone();
        tuples.sort_by(|a, b| {
            let c = a.degree.cmp(&b.degree);
            if descending {
                c.reverse()
            } else {
                c
            }
        });
        Relation { schema: self.schema.clone(), tuples }
    }

    /// Returns a copy ordered by the value at `idx` under the interval order
    /// `⪯` (stable) — `ORDER BY <column> [DESC]`.
    pub fn ordered_by_column(&self, idx: usize, descending: bool) -> Relation {
        let mut tuples = self.tuples.clone();
        tuples.sort_by(|a, b| {
            let c = fuzzy_core::interval_order::cmp_values(&a.values[idx], &b.values[idx]);
            if descending {
                c.reverse()
            } else {
                c
            }
        });
        Relation { schema: self.schema.clone(), tuples }
    }

    /// Returns a copy keeping only the first `n` tuples — `LIMIT n`.
    pub fn limited(&self, n: usize) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: self.tuples.iter().take(n).cloned().collect(),
        }
    }

    /// Sorts tuples for canonical comparison in tests: by value display then
    /// degree. Not a semantic operation.
    pub fn canonicalized(&self) -> Relation {
        let mut tuples = self.tuples.clone();
        tuples.sort_by(|a, b| {
            let ka = format!("{a}");
            let kb = format!("{b}");
            ka.cmp(&kb)
        });
        Relation { schema: self.schema.clone(), tuples }
    }
}

impl fmt::Display for Relation {
    /// Renders a column-aligned table ending with the degree column `D`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Compute column widths over header and values.
        let mut widths: Vec<usize> =
            self.schema.attributes().iter().map(|a| a.name.len()).collect();
        let rows: Vec<Vec<String>> =
            self.tuples.iter().map(|t| t.values.iter().map(|v| v.to_string()).collect()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (i, a) in self.schema.attributes().iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{:<width$}", a.name, width = widths[i])?;
        }
        writeln!(f, " | D")?;
        for (row, t) in rows.iter().zip(&self.tuples) {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{:<width$}", cell, width = widths[i])?;
            }
            writeln!(f, " | {:.3}", t.degree.value())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn name_schema() -> Schema {
        Schema::of(&[("NAME", AttrType::Text)])
    }

    fn t(name: &str, d: f64) -> Tuple {
        Tuple::new(vec![Value::text(name)], Degree::new(d).unwrap())
    }

    #[test]
    fn zero_degree_tuples_are_not_members() {
        let mut r = Relation::empty(name_schema());
        r.insert(t("Ann", 0.0));
        assert!(r.is_empty());
        r.insert(t("Ann", 0.4));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn paper_example_41_answer_dedup() {
        // T2 = {Ann 0.3, Ann 0.7, Betty 0.7} -> answer {Ann 0.7, Betty 0.7}.
        let r =
            Relation::from_tuples(name_schema(), [t("Ann", 0.3), t("Ann", 0.7), t("Betty", 0.7)]);
        let a = r.dedup_max();
        assert_eq!(a.len(), 2);
        assert_eq!(a.degree_of(&[Value::text("Ann")]).value(), 0.7);
        assert_eq!(a.degree_of(&[Value::text("Betty")]).value(), 0.7);
        assert_eq!(a.degree_of(&[Value::text("Cathy")]), Degree::ZERO);
    }

    /// `from_dedup_rows` as it was before the clone-free index: it clones
    /// each new row's values into the index. Kept as the reference the
    /// clone-free version must reproduce exactly.
    fn from_dedup_rows_cloning(schema: Schema, rows: Vec<(Vec<Value>, Degree)>) -> Relation {
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut tuples: Vec<Tuple> = Vec::new();
        for (values, degree) in rows {
            if !degree.is_positive() {
                continue;
            }
            match index.get(&values) {
                Some(&i) => tuples[i].degree = tuples[i].degree.or(degree),
                None => {
                    index.insert(values.clone(), tuples.len());
                    tuples.push(Tuple::new(values, degree));
                }
            }
        }
        Relation { schema, tuples }
    }

    #[test]
    fn clone_free_dedup_matches_the_cloning_reference() {
        use fuzzy_core::Trapezoid;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        // 2000 keys: fuzzy, text, NULL, and crisp. A zero arrives as -0.0 or
        // 0.0 at random; the two are equal as values, so whichever sign comes
        // first must survive, as in the reference.
        let key = |k: u32, zero: f64| -> Value {
            match k % 5 {
                0 => Value::fuzzy(Trapezoid::new(zero, 0.0, 1.0, 1.0 + f64::from(k)).unwrap()),
                1 => Value::text(format!("name{k}")),
                2 if k.is_multiple_of(7) => Value::Null,
                2 => Value::Number(zero),
                _ => Value::number(f64::from(k) * 0.5),
            }
        };
        let rows: Vec<(Vec<Value>, Degree)> = (0..20_000)
            .map(|_| {
                let k = rng.gen_range(0..2000u32);
                let zero = if rng.gen_range(0..2u32) == 0 { -0.0 } else { 0.0 };
                let d = Degree::new(f64::from(rng.gen_range(0..11u32)) / 10.0).unwrap();
                (vec![key(k, zero), Value::number(f64::from(k % 3))], d)
            })
            .collect();
        let schema = Schema::of(&[("K", AttrType::Number), ("M", AttrType::Number)]);
        let want = from_dedup_rows_cloning(schema.clone(), rows.clone());
        let got = Relation::from_dedup_rows(schema, rows);
        assert!(want.len() > 1000, "{} distinct rows", want.len());
        assert_eq!(got.len(), want.len());
        for (g, w) in got.tuples().iter().zip(want.tuples()) {
            // Debug shows each float's sign and round-trip digits.
            assert_eq!(format!("{g:?}"), format!("{w:?}"));
        }
    }

    #[test]
    fn insert_dedup_max_is_incremental_fuzzy_or() {
        let mut r = Relation::empty(name_schema());
        r.insert_dedup_max(t("Ann", 0.3));
        r.insert_dedup_max(t("Ann", 0.7));
        r.insert_dedup_max(t("Ann", 0.5));
        r.insert_dedup_max(t("Bo", 0.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].degree.value(), 0.7);
    }

    #[test]
    fn thresholds() {
        let r = Relation::from_tuples(name_schema(), [t("A", 0.2), t("B", 0.5), t("C", 0.9)]);
        let strict = r.with_threshold(Degree::new(0.5).unwrap(), true);
        assert_eq!(strict.len(), 1);
        let lax = r.with_threshold(Degree::new(0.5).unwrap(), false);
        assert_eq!(lax.len(), 2);
    }

    #[test]
    fn projection() {
        let s = Schema::of(&[("NAME", AttrType::Text), ("AGE", AttrType::Number)]);
        let r = Relation::from_tuples(
            s,
            [Tuple::new(vec![Value::text("Ann"), Value::number(24.0)], Degree::ONE)],
        );
        let p = r.project(&[1]);
        assert_eq!(p.schema().len(), 1);
        assert_eq!(p.schema().attr(0).name, "AGE");
        assert_eq!(p.tuples()[0].values, vec![Value::number(24.0)]);
    }

    #[test]
    fn display_renders_aligned_table() {
        let r = Relation::from_tuples(name_schema(), [t("Ann", 0.75), t("Bartholomew", 1.0)]);
        let s = r.to_string();
        // Header and cells are padded to the widest value in each column.
        assert!(s.contains("NAME        | D"), "{s}");
        assert!(s.contains("Ann         | 0.750"), "{s}");
        assert!(s.contains("Bartholomew | 1.000"), "{s}");
    }

    #[test]
    fn canonicalized_orders_rows() {
        let r = Relation::from_tuples(name_schema(), [t("B", 0.5), t("A", 0.5)]);
        let c = r.canonicalized();
        assert_eq!(c.tuples()[0].values, vec![Value::text("A")]);
    }
}

#[cfg(test)]
mod ordering_tests {
    use super::*;
    use crate::schema::AttrType;
    use fuzzy_core::Trapezoid;

    fn rel() -> Relation {
        let s = Schema::of(&[("X", AttrType::Number)]);
        Relation::from_tuples(
            s,
            [
                Tuple::new(vec![Value::number(5.0)], Degree::new(0.4).unwrap()),
                Tuple::new(
                    vec![Value::fuzzy(Trapezoid::triangular(0.0, 1.0, 2.0).unwrap())],
                    Degree::new(0.9).unwrap(),
                ),
                Tuple::new(vec![Value::number(3.0)], Degree::new(0.7).unwrap()),
            ],
        )
    }

    #[test]
    fn order_by_degree_both_directions() {
        let r = rel();
        let asc: Vec<f64> =
            r.ordered_by_degree(false).tuples().iter().map(|t| t.degree.value()).collect();
        assert_eq!(asc, vec![0.4, 0.7, 0.9]);
        let desc: Vec<f64> =
            r.ordered_by_degree(true).tuples().iter().map(|t| t.degree.value()).collect();
        assert_eq!(desc, vec![0.9, 0.7, 0.4]);
    }

    #[test]
    fn order_by_column_uses_interval_order() {
        let r = rel();
        let xs: Vec<f64> = r
            .ordered_by_column(0, false)
            .tuples()
            .iter()
            .map(|t| t.values[0].interval().unwrap().0)
            .collect();
        assert_eq!(xs, vec![0.0, 3.0, 5.0]);
    }

    #[test]
    fn limit_truncates() {
        let r = rel();
        assert_eq!(r.limited(2).len(), 2);
        assert_eq!(r.limited(0).len(), 0);
        assert_eq!(r.limited(99).len(), 3);
    }
}
