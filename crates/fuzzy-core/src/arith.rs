//! Fuzzy arithmetic on trapezoidal distributions (Section 6 of the paper).
//!
//! With a trapezoidal membership function, a fuzzy value induces two
//! intervals: the 0-cut `[a, d]` (all values with membership > 0) and the
//! 1-cut `[b, c]` (all values with membership 1). Fuzzy arithmetic operations
//! take two values and determine the two intervals of the result by interval
//! arithmetic; e.g. `x + y` has 0-cut `[a1 + a2, d1 + d2]` and 1-cut
//! `[b1 + b2, c1 + c2]`. `AVG` is defined by fuzzy addition and division,
//! `SUM` by fuzzy addition, and `MIN`/`MAX` by a defuzzification that orders
//! fuzzy values by the centre of their 1-cuts.

use crate::error::{FuzzyError, Result};
use crate::trapezoid::Trapezoid;
use crate::value::Value;

/// Fuzzy addition: component-wise on both cuts.
///
/// ```
/// use fuzzy_core::{arith, Trapezoid};
///
/// let x = Trapezoid::new(1.0, 2.0, 3.0, 4.0)?;
/// let y = Trapezoid::triangular(10.0, 20.0, 30.0)?;
/// assert_eq!(arith::add(&x, &y), Trapezoid::new(11.0, 22.0, 23.0, 34.0)?);
/// # Ok::<(), fuzzy_core::FuzzyError>(())
/// ```
pub fn add(x: &Trapezoid, y: &Trapezoid) -> Trapezoid {
    let (a1, b1, c1, d1) = x.breakpoints();
    let (a2, b2, c2, d2) = y.breakpoints();
    Trapezoid::new(a1 + a2, b1 + b2, c1 + c2, d1 + d2)
        .expect("sum of ordered breakpoints stays ordered")
}

/// Fuzzy subtraction: `x − y` has 0-cut `[a1 − d2, d1 − a2]` and 1-cut
/// `[b1 − c2, c1 − b2]`.
pub fn sub(x: &Trapezoid, y: &Trapezoid) -> Trapezoid {
    add(x, &neg(y))
}

/// Fuzzy negation: mirrors the distribution about 0.
pub fn neg(x: &Trapezoid) -> Trapezoid {
    let (a, b, c, d) = x.breakpoints();
    Trapezoid::new(-d, -c, -b, -a).expect("mirrored breakpoints stay ordered")
}

/// Multiplication by a crisp scalar.
pub fn scale(x: &Trapezoid, k: f64) -> Trapezoid {
    let (a, b, c, d) = x.breakpoints();
    let t = if k >= 0.0 {
        Trapezoid::new(a * k, b * k, c * k, d * k)
    } else {
        Trapezoid::new(d * k, c * k, b * k, a * k)
    };
    t.expect("scaled breakpoints stay ordered")
}

/// Division by a non-zero crisp scalar.
pub fn div(x: &Trapezoid, k: f64) -> Result<Trapezoid> {
    if k == 0.0 {
        return Err(FuzzyError::DivisionByZero);
    }
    Ok(scale(x, 1.0 / k))
}

/// Fuzzy sum of an iterator of distributions; `None` for an empty input
/// (matching the paper: `SUM` of an empty fuzzy set is NULL).
pub fn sum<'a, I: IntoIterator<Item = &'a Trapezoid>>(values: I) -> Option<Trapezoid> {
    values.into_iter().fold(None, |acc: Option<Trapezoid>, t| {
        Some(match acc {
            None => *t,
            Some(s) => add(&s, t),
        })
    })
}

/// Fuzzy average: the fuzzy sum divided by the crisp count; `None` for an
/// empty input.
pub fn avg<'a, I: IntoIterator<Item = &'a Trapezoid>>(values: I) -> Option<Trapezoid> {
    let mut n = 0usize;
    let mut acc: Option<Trapezoid> = None;
    for t in values {
        n += 1;
        acc = Some(match acc {
            None => *t,
            Some(s) => add(&s, t),
        });
    }
    acc.map(|s| div(&s, n as f64).expect("n > 0"))
}

/// Defuzzified ordering key: the centre of the 1-cut (Section 6's sorting
/// criterion for `MIN`/`MAX`).
pub fn defuzz_key(t: &Trapezoid) -> f64 {
    t.core_center()
}

/// Total order used by `MIN`/`MAX`: defuzzified key first, then the full
/// breakpoint tuple so ties resolve deterministically regardless of the
/// input order (sorted streams and scan order must agree). Two trapezoids
/// compare `Equal` only when all four breakpoints are equal.
pub fn defuzz_cmp(x: &Trapezoid, y: &Trapezoid) -> std::cmp::Ordering {
    let kx = defuzz_key(x);
    let ky = defuzz_key(y);
    kx.partial_cmp(&ky).expect("finite").then_with(|| {
        let (xa, xb, xc, xd) = x.breakpoints();
        let (ya, yb, yc, yd) = y.breakpoints();
        [xa, xb, xc, xd].partial_cmp(&[ya, yb, yc, yd]).expect("finite")
    })
}

/// The minimum of an iterator of fuzzy values under the defuzzified order;
/// returns the original distribution, not its defuzzified number.
pub fn fuzzy_min<'a, I: IntoIterator<Item = &'a Trapezoid>>(values: I) -> Option<Trapezoid> {
    values.into_iter().min_by(|x, y| defuzz_cmp(x, y)).copied()
}

/// The maximum, symmetric to [`fuzzy_min`].
pub fn fuzzy_max<'a, I: IntoIterator<Item = &'a Trapezoid>>(values: I) -> Option<Trapezoid> {
    values.into_iter().max_by(|x, y| defuzz_cmp(x, y)).copied()
}

/// Value-level fuzzy addition; errors on non-numeric operands.
pub fn value_add(x: &Value, y: &Value) -> Result<Value> {
    match (x.as_distribution(), y.as_distribution()) {
        (Some(a), Some(b)) => Ok(Value::fuzzy(add(&a, &b))),
        _ => Err(FuzzyError::TypeMismatch {
            expected: "number",
            found: if x.as_distribution().is_none() { x.type_name() } else { y.type_name() },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(a: f64, b: f64, c: f64, d: f64) -> Trapezoid {
        Trapezoid::new(a, b, c, d).unwrap()
    }

    #[test]
    fn paper_addition_example() {
        // Section 6: x with 0-cut [x1, x4], 1-cut [x2, x3]; y likewise;
        // x + y has 0-cut [x1+y1, x4+y4] and 1-cut [x2+y2, x3+y3].
        let x = t(1.0, 2.0, 3.0, 4.0);
        let y = t(10.0, 20.0, 30.0, 40.0);
        assert_eq!(add(&x, &y), t(11.0, 22.0, 33.0, 44.0));
    }

    #[test]
    fn subtraction_and_negation() {
        let x = t(1.0, 2.0, 3.0, 4.0);
        let y = t(0.0, 1.0, 1.0, 2.0);
        assert_eq!(sub(&x, &y), t(-1.0, 1.0, 2.0, 4.0));
        assert_eq!(neg(&x), t(-4.0, -3.0, -2.0, -1.0));
        // x − x is centred on zero but not crisp zero (fuzzy arithmetic
        // does not cancel uncertainty).
        let d = sub(&x, &x);
        assert_eq!(d.support(), (-3.0, 3.0));
        assert_eq!(d.core(), (-1.0, 1.0));
    }

    #[test]
    fn scaling() {
        let x = t(1.0, 2.0, 3.0, 4.0);
        assert_eq!(scale(&x, 2.0), t(2.0, 4.0, 6.0, 8.0));
        assert_eq!(scale(&x, -1.0), t(-4.0, -3.0, -2.0, -1.0));
        assert_eq!(scale(&x, 0.0), Trapezoid::crisp(0.0).unwrap());
        assert_eq!(div(&x, 2.0).unwrap(), t(0.5, 1.0, 1.5, 2.0));
        assert_eq!(div(&x, 0.0), Err(FuzzyError::DivisionByZero));
    }

    #[test]
    fn sums_and_averages() {
        let xs = [t(0.0, 1.0, 1.0, 2.0), t(2.0, 3.0, 3.0, 4.0), t(4.0, 5.0, 5.0, 6.0)];
        assert_eq!(sum(&xs).unwrap(), t(6.0, 9.0, 9.0, 12.0));
        assert_eq!(avg(&xs).unwrap(), t(2.0, 3.0, 3.0, 4.0));
        assert_eq!(sum(std::iter::empty()), None);
        assert_eq!(avg(std::iter::empty()), None);
        // Crisp inputs behave like ordinary arithmetic.
        let cs = [Trapezoid::crisp(1.0).unwrap(), Trapezoid::crisp(5.0).unwrap()];
        assert_eq!(avg(&cs).unwrap(), Trapezoid::crisp(3.0).unwrap());
    }

    #[test]
    fn min_max_by_core_centre() {
        // "about 30" vs a wide-supported value centred lower: the defuzzified
        // order uses only the 1-cut centre.
        let about_30 = Trapezoid::triangular(25.0, 30.0, 35.0).unwrap();
        let wide_low = t(0.0, 10.0, 20.0, 100.0); // core centre 15
        let vals = [about_30, wide_low];
        assert_eq!(fuzzy_min(&vals).unwrap(), wide_low);
        assert_eq!(fuzzy_max(&vals).unwrap(), about_30);
        assert_eq!(fuzzy_min(std::iter::empty()), None);
        assert_eq!(fuzzy_max(std::iter::empty()), None);
    }

    #[test]
    fn value_level_arithmetic() {
        let a = Value::number(2.0);
        let b = Value::fuzzy(t(0.0, 1.0, 1.0, 2.0));
        assert_eq!(value_add(&a, &b).unwrap(), Value::fuzzy(t(2.0, 3.0, 3.0, 4.0)));
        assert!(value_add(&a, &Value::text("x")).is_err());
        assert!(value_add(&Value::Null, &b).is_err());
    }
}
