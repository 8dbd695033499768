//! Attribute values of the fuzzy relational model.
//!
//! Each attribute value is either crisp (a number or a text string), an
//! ill-known number represented by a trapezoidal possibility distribution, or
//! NULL. A crisp number `v` is semantically the degenerate distribution with
//! `μ(x) = 1` iff `x = v` (Section 2.2 of the paper).

use crate::compare::{possibility, CmpOp};
use crate::degree::Degree;
use crate::trapezoid::Trapezoid;
use std::fmt;
use std::hash::{Hash, Hasher};

/// An attribute value. Equality and hashing are *identity of representation*
/// (after normalizing crisp trapezoids to numbers), which is what duplicate
/// elimination and the T1/T2 grouping of Section 6 require — *not* the fuzzy
/// possibility of equality, which is [`Value::compare`].
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL: every comparison against it has degree 0.
    Null,
    /// A crisp string.
    Text(String),
    /// A crisp number.
    Number(f64),
    /// An ill-known number: a non-degenerate trapezoidal possibility
    /// distribution. Constructors collapse degenerate (crisp) trapezoids to
    /// `Number`, so this variant never holds a single point.
    Fuzzy(Trapezoid),
}

impl Value {
    /// Creates a crisp numeric value. Non-finite inputs become `Null`.
    pub fn number(v: f64) -> Value {
        if v.is_finite() {
            Value::Number(canon_f64(v))
        } else {
            Value::Null
        }
    }

    /// Creates a text value.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Creates a fuzzy value, normalizing crisp trapezoids to `Number`.
    pub fn fuzzy(t: Trapezoid) -> Value {
        match t.as_crisp() {
            Some(v) => Value::number(v),
            None => Value::Fuzzy(t),
        }
    }

    /// True iff this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as a possibility distribution, if it is numeric.
    pub fn as_distribution(&self) -> Option<Trapezoid> {
        match self {
            Value::Number(v) => Some(Trapezoid::crisp(*v).expect("finite by construction")),
            Value::Fuzzy(t) => Some(*t),
            _ => None,
        }
    }

    /// The crisp number, if this value is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The text, if this value is one.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// A short name of the value's runtime type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Text(_) => "text",
            Value::Number(_) => "number",
            Value::Fuzzy(_) => "fuzzy number",
        }
    }

    /// The satisfaction degree `d(self θ other)`.
    ///
    /// * numeric operands (crisp or fuzzy) use the possibility semantics of
    ///   Section 2;
    /// * text operands compare crisply (degree 1 or 0) in lexicographic order;
    /// * `Null` or mixed text/number operands yield degree 0 (an un-evaluable
    ///   predicate is unsatisfied).
    pub fn compare(&self, op: CmpOp, other: &Value) -> Degree {
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => Degree::from(op.eval_ord(a, b)),
            _ => match (self.as_distribution(), other.as_distribution()) {
                (Some(x), Some(y)) => possibility(&x, op, &y),
                _ => Degree::ZERO,
            },
        }
    }

    /// The degree of `self ≈ other` under the similarity relation
    /// `μ_≈(x, y) = max(0, 1 − |x − y| / tol)` (the non-binary comparisons
    /// Section 2 of the paper permits). Text compares by exact equality;
    /// `Null` or mixed types yield 0.
    pub fn compare_similar(&self, other: &Value, tol: f64) -> Degree {
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => Degree::from(a == b),
            _ => match (self.as_distribution(), other.as_distribution()) {
                (Some(x), Some(y)) => crate::compare::approximately_equal(&x, &y, tol),
                _ => Degree::ZERO,
            },
        }
    }

    /// The interval `[b(v), e(v)]` of Definition 3.1 — the closure of the
    /// region of positive membership — for numeric values.
    pub fn interval(&self) -> Option<(f64, f64)> {
        self.as_distribution().map(|t| t.support())
    }

    /// The α-cut interval of a numeric value. At α = 0 this is the support
    /// closure (the Definition 3.1 interval); at higher α it narrows. Two
    /// values satisfy `d(x = y) >= α` exactly when their α-cuts intersect —
    /// the "equality indicator" behind threshold push-down into the
    /// merge-join window (the optimization direction of the paper's
    /// reference \[42\]).
    pub fn interval_at(&self, alpha: Degree) -> Option<(f64, f64)> {
        self.as_distribution().map(|t| t.alpha_cut(alpha))
    }
}

/// Canonicalizes a float for hashing: collapses `-0.0` to `0.0`.
pub(crate) fn canon_f64(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Fuzzy(a), Value::Fuzzy(b)) => a.breakpoints() == b.breakpoints(),
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Text(s) => {
                1u8.hash(state);
                s.hash(state);
            }
            Value::Number(v) => {
                2u8.hash(state);
                canon_f64(*v).to_bits().hash(state);
            }
            Value::Fuzzy(t) => {
                3u8.hash(state);
                let (a, b, c, d) = t.breakpoints();
                for v in [a, b, c, d] {
                    canon_f64(v).to_bits().hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Number(v) => write!(f, "{v}"),
            Value::Fuzzy(t) => write!(f, "{t}"),
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::number(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::text(s)
    }
}

impl From<Trapezoid> for Value {
    fn from(t: Trapezoid) -> Value {
        Value::fuzzy(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn constructors_normalize() {
        let crisp_trap = Trapezoid::crisp(5.0).unwrap();
        assert_eq!(Value::fuzzy(crisp_trap), Value::Number(5.0));
        assert_eq!(Value::number(f64::NAN), Value::Null);
        assert_eq!(Value::number(f64::INFINITY), Value::Null);
        assert_eq!(Value::number(-0.0), Value::Number(0.0));
    }

    #[test]
    fn identity_equality_vs_fuzzy_comparison() {
        let a = Value::fuzzy(Trapezoid::triangular(0.0, 5.0, 10.0).unwrap());
        let b = Value::fuzzy(Trapezoid::triangular(2.0, 5.0, 8.0).unwrap());
        // Different representations: not identical...
        assert_ne!(a, b);
        // ...but fully possibly equal (cores coincide).
        assert_eq!(a.compare(CmpOp::Eq, &b), Degree::ONE);
    }

    #[test]
    fn text_comparisons_are_crisp() {
        let x = Value::text("Ann");
        let y = Value::text("Betty");
        assert_eq!(x.compare(CmpOp::Eq, &y), Degree::ZERO);
        assert_eq!(x.compare(CmpOp::Ne, &y), Degree::ONE);
        assert_eq!(x.compare(CmpOp::Lt, &y), Degree::ONE);
        assert_eq!(x.compare(CmpOp::Eq, &x.clone()), Degree::ONE);
    }

    #[test]
    fn null_and_mixed_types_never_satisfy() {
        let n = Value::Null;
        let x = Value::number(5.0);
        let t = Value::text("5");
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(n.compare(op, &x), Degree::ZERO);
            assert_eq!(x.compare(op, &n), Degree::ZERO);
            assert_eq!(t.compare(op, &x), Degree::ZERO);
            assert_eq!(n.compare(op, &n.clone()), Degree::ZERO);
        }
    }

    #[test]
    fn crisp_fuzzy_comparison_uses_membership() {
        let my = Value::fuzzy(Trapezoid::new(20.0, 25.0, 30.0, 35.0).unwrap());
        assert_eq!(Value::number(24.0).compare(CmpOp::Eq, &my).rounded(3), 0.8);
    }

    #[test]
    fn values_are_hashable_and_usable_as_keys() {
        let mut m: HashMap<Value, u32> = HashMap::new();
        m.insert(Value::number(1.0), 1);
        m.insert(Value::text("x"), 2);
        m.insert(Value::fuzzy(Trapezoid::triangular(0.0, 1.0, 2.0).unwrap()), 3);
        m.insert(Value::Null, 4);
        assert_eq!(m.len(), 4);
        assert_eq!(m[&Value::number(1.0)], 1);
        // A crisp trapezoid hashes as the equal number.
        assert_eq!(m[&Value::fuzzy(Trapezoid::crisp(1.0).unwrap())], 1);
        // -0.0 and 0.0 are one key.
        m.insert(Value::number(0.0), 5);
        m.insert(Value::number(-0.0), 6);
        assert_eq!(m[&Value::number(0.0)], 6);
    }

    #[test]
    fn intervals() {
        assert_eq!(Value::number(3.0).interval(), Some((3.0, 3.0)));
        assert_eq!(
            Value::fuzzy(Trapezoid::new(1.0, 2.0, 3.0, 4.0).unwrap()).interval(),
            Some((1.0, 4.0))
        );
        assert_eq!(Value::text("a").interval(), None);
        assert_eq!(Value::Null.interval(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::number(2.5).to_string(), "2.5");
        assert_eq!(Value::text("hi").to_string(), "hi");
    }
}
