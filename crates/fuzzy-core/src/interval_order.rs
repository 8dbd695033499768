//! The linear order `⪯` on fuzzy values (Definition 3.1 of the paper).
//!
//! Each data value `v` represents the interval `[b(v), e(v)]` in which its
//! membership is greater than 0 (a crisp value `v` represents `[v, v]`).
//! Values are ordered primarily by the left endpoint `b(v)`, then by the
//! right endpoint `e(v)`. Sorting both join relations by `⪯` is what makes
//! the extended merge-join of Section 3 correct: every inner tuple preceding
//! `Rng(r)` also precedes `Rng(r')` for all later outer tuples `r'`.
//!
//! We refine the paper's order with two extra tie-breakers that do not affect
//! its correctness argument but are useful to the engine:
//!
//! 1. remaining trapezoid breakpoints, so *identical* representations sort
//!    adjacently (needed by the identity-equality grouping of the JA
//!    unnesting in Section 6);
//! 2. a deterministic cross-type order (`Null < numeric < text`), so mixed
//!    columns still sort totally; text sorts lexicographically, which keeps
//!    equal strings adjacent for crisp equi-joins on text.

use crate::degree::Degree;
use crate::trapezoid::Trapezoid;
use crate::value::{canon_f64, Value};
use std::cmp::Ordering;

/// Compares two values by `⪯` (with the refinements described above).
pub fn cmp_values(x: &Value, y: &Value) -> Ordering {
    cmp_values_at(x, y, Degree::ZERO)
}

/// Compares two values by the `⪯` order of their α-cut intervals. With
/// α = 0 this is exactly [`cmp_values`]; with α = z it orders by the z-cuts,
/// which lets a `WITH D > z` threshold shrink the merge windows (two values
/// can reach equality degree ≥ z only if their z-cuts intersect).
pub fn cmp_values_at(x: &Value, y: &Value, alpha: Degree) -> Ordering {
    match (x, y) {
        (Value::Text(a), Value::Text(b)) => a.cmp(b),
        _ => match (x.as_distribution(), y.as_distribution()) {
            (Some(tx), Some(ty)) => cmp_num(&num_key(&tx, alpha), &num_key(&ty, alpha)),
            _ => rank(x).cmp(&rank(y)),
        },
    }
}

/// A value's `⪯` sort key at one α level, computed once so comparisons
/// stop recomputing α-cuts. `key.cmp_key(&other)` orders exactly like
/// [`cmp_values_at`] on the values the keys came from.
#[derive(Debug, Clone)]
pub enum OrderKey {
    /// The key of `Null` (sorts first).
    Null,
    /// The key of a numeric value: the α-cut endpoints `[l, r]`, then the
    /// breakpoint tie-breakers `[a, d, b, c]`.
    Num([f64; 6]),
    /// The key of a text value (sorts last, lexicographically).
    Text(String),
}

impl OrderKey {
    /// The key of `v` at α-cut level `alpha`. Numeric values are keyed by
    /// [`OrderKey::number`] and [`OrderKey::fuzzy`], the constructors a
    /// record's bytes are keyed by too, so both paths agree bit for bit.
    pub fn at(v: &Value, alpha: Degree) -> OrderKey {
        match v {
            Value::Null => OrderKey::Null,
            Value::Number(x) => OrderKey::number(*x, alpha),
            Value::Fuzzy(t) => OrderKey::fuzzy(t, alpha),
            Value::Text(s) => OrderKey::Text(s.clone()),
        }
    }

    /// The key of `Value::number(x)` at α-cut level `alpha`, built without
    /// the value: a non-finite `x` keys as `Null`, and `-0.0` as `+0.0`.
    pub fn number(x: f64, alpha: Degree) -> OrderKey {
        match Trapezoid::crisp(canon_f64(x)) {
            Ok(t) => OrderKey::Num(num_key(&t, alpha)),
            Err(_) => OrderKey::Null,
        }
    }

    /// The key of `Value::fuzzy(t)` at α-cut level `alpha`, built without
    /// the value: a crisp `t` keys as the number it collapses to.
    pub fn fuzzy(t: &Trapezoid, alpha: Degree) -> OrderKey {
        match t.as_crisp() {
            Some(x) => OrderKey::number(x, alpha),
            None => OrderKey::Num(num_key(t, alpha)),
        }
    }

    /// The key's normalized prefix: a fixed-width image that orders like
    /// the key wherever it differs. `a.prefix() < b.prefix()` implies
    /// `a.cmp_key(&b) == Less`, so a sort compares prefixes first and calls
    /// [`OrderKey::cmp_key`] only when they tie.
    ///
    /// A numeric key maps to the order-preserving bit images of its α-cut
    /// endpoints `l, r` (Definition 3.1's order); the breakpoint tie-breakers
    /// are left to the full compare. `Null` maps to `[0, 0]` and text to
    /// `[u64::MAX, u64::MAX]`, images no finite float has, so the rank order
    /// `Null < numeric < text` holds and text ties fall through.
    pub fn prefix(&self) -> [u64; 2] {
        match self {
            OrderKey::Null => [0, 0],
            OrderKey::Num(k) => [ordered_bits(k[0]), ordered_bits(k[1])],
            OrderKey::Text(_) => [u64::MAX, u64::MAX],
        }
    }

    /// Compares two keys by `⪯` (with the refinements of the module docs).
    pub fn cmp_key(&self, other: &OrderKey) -> Ordering {
        match (self, other) {
            (OrderKey::Null, OrderKey::Null) => Ordering::Equal,
            (OrderKey::Num(x), OrderKey::Num(y)) => cmp_num(x, y),
            (OrderKey::Text(a), OrderKey::Text(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            OrderKey::Null => 0,
            OrderKey::Num(_) => 1,
            OrderKey::Text(_) => 2,
        }
    }
}

/// The numeric key shared by [`cmp_values_at`] and [`OrderKey`]: the α-cut
/// `[l, r]`, then the breakpoints in tie-break order `a, d, b, c`.
fn num_key(t: &Trapezoid, alpha: Degree) -> [f64; 6] {
    let (l, r) = t.alpha_cut(alpha);
    let (a, b, c, d) = t.breakpoints();
    [l, r, a, d, b, c]
}

/// Definition 3.1 on the α-cut: left endpoint, then right endpoint; then the
/// full breakpoints as identity tie-breakers.
fn cmp_num(x: &[f64; 6], y: &[f64; 6]) -> Ordering {
    x.iter().zip(y).map(|(a, b)| total(*a, *b)).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
}

/// The order-preserving `u64` image of a finite float: `x < y` under
/// `partial_cmp` iff `ordered_bits(x) < ordered_bits(y)`. `-0.0` is folded
/// into `+0.0` first, since `partial_cmp` holds them equal.
fn ordered_bits(x: f64) -> u64 {
    let bits = if x == 0.0 { 0.0f64 } else { x }.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Number(_) | Value::Fuzzy(_) => 1,
        Value::Text(_) => 2,
    }
}

fn total(a: f64, b: f64) -> Ordering {
    // Values are finite by construction; partial_cmp cannot fail.
    a.partial_cmp(&b).expect("finite floats")
}

/// True iff value `x` wholly precedes value `y` under `⪯` *without interval
/// intersection*: `e(x) < b(y)`. In the merge-join scan, an inner tuple
/// satisfying this against the current outer tuple can never join with it or
/// any later outer tuple.
pub fn strictly_before(x: &Value, y: &Value) -> bool {
    strictly_before_at(x, y, Degree::ZERO)
}

/// [`strictly_before`] on the α-cut intervals (threshold push-down).
pub fn strictly_before_at(x: &Value, y: &Value, alpha: Degree) -> bool {
    match (x.interval_at(alpha), y.interval_at(alpha)) {
        (Some((_, xe)), Some((yb, _))) => xe < yb,
        // Text joins crisply: "before" means strictly smaller text.
        _ => match (x, y) {
            (Value::Text(a), Value::Text(b)) => a < b,
            _ => false,
        },
    }
}

/// True iff value `x` wholly follows value `y`: `b(x) > e(y)`. In the
/// merge-join scan of the inner relation for outer tuple with value `y`, the
/// first inner value satisfying this ends `Rng`.
pub fn strictly_after(x: &Value, y: &Value) -> bool {
    strictly_before(y, x)
}

/// [`strictly_after`] on the α-cut intervals (threshold push-down).
pub fn strictly_after_at(x: &Value, y: &Value, alpha: Degree) -> bool {
    strictly_before_at(y, x, alpha)
}

/// True iff the intervals of the two values intersect (the necessary
/// condition for a positive fuzzy equality degree).
pub fn intervals_intersect(x: &Value, y: &Value) -> bool {
    match (x.interval(), y.interval()) {
        (Some((xb, xe)), Some((yb, ye))) => xb <= ye && yb <= xe,
        _ => match (x, y) {
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(a: f64, b: f64, c: f64, d: f64) -> Value {
        Value::fuzzy(Trapezoid::new(a, b, c, d).unwrap())
    }

    #[test]
    fn paper_example_31_ordering() {
        // Example 3.1: r-values [30,35], [20,28], [20,35] order as
        // [20,28] ≺ [20,35] ≺ [30,35].
        let r1 = fv(30.0, 31.0, 33.0, 35.0);
        let r2 = fv(20.0, 22.0, 26.0, 28.0);
        let r3 = fv(20.0, 24.0, 30.0, 35.0);
        let mut v = vec![r1.clone(), r2.clone(), r3.clone()];
        v.sort_by(cmp_values);
        assert_eq!(v, vec![r2, r3, r1]);
        // s-values [32,34], [20,25], [30,40] order as
        // [20,25] ≺ [30,40] ≺ [32,34].
        let s1 = fv(32.0, 33.0, 33.0, 34.0);
        let s2 = fv(20.0, 21.0, 24.0, 25.0);
        let s3 = fv(30.0, 31.0, 39.0, 40.0);
        let mut v = vec![s1.clone(), s2.clone(), s3.clone()];
        v.sort_by(cmp_values);
        assert_eq!(v, vec![s2, s3, s1]);
    }

    #[test]
    fn crisp_values_order_numerically() {
        let mut v = vec![Value::number(5.0), Value::number(-1.0), Value::number(2.0)];
        v.sort_by(cmp_values);
        assert_eq!(v, vec![Value::number(-1.0), Value::number(2.0), Value::number(5.0)]);
    }

    #[test]
    fn crisp_interleaves_with_fuzzy_by_support() {
        let crisp28 = Value::number(28.0);
        let my = fv(20.0, 25.0, 30.0, 35.0); // support [20, 35]
        assert_eq!(cmp_values(&my, &crisp28), std::cmp::Ordering::Less);
    }

    #[test]
    fn identical_representations_are_equal_and_adjacent() {
        let a = fv(1.0, 2.0, 3.0, 4.0);
        let b = fv(1.0, 2.0, 3.0, 4.0);
        assert_eq!(cmp_values(&a, &b), Ordering::Equal);
        // Same support, different cores: still totally ordered.
        let c = fv(1.0, 2.5, 3.0, 4.0);
        assert_ne!(cmp_values(&a, &c), Ordering::Equal);
        assert_eq!(cmp_values(&a, &c), cmp_values(&b, &c));
    }

    #[test]
    fn cross_type_order_is_total() {
        let mut v =
            vec![Value::text("zebra"), Value::number(1.0), Value::Null, Value::text("apple")];
        v.sort_by(cmp_values);
        assert_eq!(
            v,
            vec![Value::Null, Value::number(1.0), Value::text("apple"), Value::text("zebra")]
        );
    }

    #[test]
    fn before_after_and_intersection() {
        let left = fv(0.0, 1.0, 2.0, 3.0);
        let right = fv(5.0, 6.0, 7.0, 8.0);
        let wide = fv(2.0, 3.0, 6.0, 9.0);
        assert!(strictly_before(&left, &right));
        assert!(strictly_after(&right, &left));
        assert!(!strictly_before(&left, &wide));
        assert!(intervals_intersect(&left, &wide));
        assert!(intervals_intersect(&wide, &right));
        assert!(!intervals_intersect(&left, &right));
        // Touching intervals intersect (possibility there may still be 0,
        // but the merge-join must examine the pair).
        let touch = fv(3.0, 4.0, 5.0, 6.0);
        assert!(intervals_intersect(&left, &touch));
        assert!(!strictly_before(&left, &touch));
    }

    #[test]
    fn text_before_after() {
        let a = Value::text("ann");
        let b = Value::text("bob");
        assert!(strictly_before(&a, &b));
        assert!(!strictly_before(&b, &a));
        assert!(intervals_intersect(&a, &a.clone()));
        assert!(!intervals_intersect(&a, &b));
    }

    #[test]
    fn prefix_orders_nulls_numbers_and_text() {
        let key = |v: &Value| OrderKey::at(v, Degree::ZERO).prefix();
        let ordered = [
            Value::Null,
            Value::number(f64::MIN),
            Value::number(-2.5),
            Value::number(-1e-300),
            Value::number(0.0),
            Value::number(1e-300),
            fv(1.0, 2.0, 3.0, 4.0),
            fv(1.0, 2.0, 3.0, 5.0),
            Value::number(f64::MAX),
            Value::text("a"),
        ];
        for pair in ordered.windows(2) {
            assert!(key(&pair[0]) < key(&pair[1]), "{:?} vs {:?}", pair[0], pair[1]);
        }
        // Ties the prefix leaves to the full key: signed zeros, shared
        // supports, and text.
        assert_eq!(key(&Value::Number(-0.0)), key(&Value::number(0.0)));
        assert_eq!(key(&fv(1.0, 2.0, 3.0, 4.0)), key(&fv(1.0, 2.5, 3.0, 4.0)));
        assert_eq!(key(&Value::text("a")), key(&Value::text("b")));
    }

    #[test]
    fn order_is_consistent_with_sort_stability_requirements() {
        // Antisymmetry + transitivity smoke check over a small set.
        let vals = [
            Value::Null,
            Value::number(1.0),
            Value::number(2.0),
            fv(0.0, 1.0, 2.0, 3.0),
            fv(0.0, 1.5, 2.0, 3.0),
            fv(0.0, 1.0, 2.0, 4.0),
            Value::text("a"),
        ];
        for x in &vals {
            assert_eq!(cmp_values(x, x), Ordering::Equal);
            for y in &vals {
                assert_eq!(cmp_values(x, y), cmp_values(y, x).reverse());
                for z in &vals {
                    if cmp_values(x, y) == Ordering::Less && cmp_values(y, z) == Ordering::Less {
                        assert_eq!(cmp_values(x, z), Ordering::Less);
                    }
                }
            }
        }
    }
}
