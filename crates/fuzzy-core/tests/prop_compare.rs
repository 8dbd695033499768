//! Property-based tests: the closed-form possibility computations of
//! `fuzzy_core::compare` agree with the brute-force numeric oracle, and
//! satisfy the algebraic laws the paper's semantics rely on.

use fuzzy_core::compare::{necessity, possibility, CmpOp};
use fuzzy_core::oracle::possibility_grid;
use fuzzy_core::{Degree, Trapezoid};
use proptest::prelude::*;

const ALL_OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// Arbitrary trapezoid over a modest range, with a healthy share of
/// degenerate shapes (crisp points, rectangles, triangles, vertical edges).
fn arb_trapezoid() -> impl Strategy<Value = Trapezoid> {
    let base = -50.0..50.0f64;
    let widths = prop_oneof![
        Just((0.0, 0.0, 0.0)),                                       // crisp point
        (0.0..10.0f64).prop_map(|w| (0.0, w, 0.0)),                  // rectangle
        (0.0..10.0f64, 0.0..10.0f64).prop_map(|(l, r)| (l, 0.0, r)), // triangle
        (0.0..10.0f64, 0.0..10.0f64, 0.0..10.0f64),                  // general trapezoid
        (0.0..10.0f64, 0.0..10.0f64).prop_map(|(c, r)| (0.0, c, r)), // vertical left
        (0.0..10.0f64, 0.0..10.0f64).prop_map(|(l, c)| (l, c, 0.0)), // vertical right
    ];
    (base, widths).prop_map(|(a, (wl, wc, wr))| {
        Trapezoid::new(a, a + wl, a + wl + wc, a + wl + wc + wr).expect("ordered by construction")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Closed forms never undercut the grid oracle (the oracle only samples
    /// feasible points, so it is a lower bound), and are close to it.
    #[test]
    fn closed_form_matches_oracle(x in arb_trapezoid(), y in arb_trapezoid(), op_idx in 0usize..6) {
        let op = ALL_OPS[op_idx];
        let exact = possibility(&x, op, &y).value();
        let approx = possibility_grid(&x, op, &y, 300).value();
        // Grid never exceeds the true sup by more than fp noise.
        prop_assert!(approx <= exact + 1e-9,
            "oracle {approx} above closed form {exact} for {x} {op} {y}");
        // And the closed form is not far above the grid estimate (grid pitch
        // bounds the gap; supports span <= 130 over 300 points with unit max
        // slope over width >= .. use a generous tolerance).
        prop_assert!(exact - approx < 0.05,
            "closed form {exact} far above oracle {approx} for {x} {op} {y}");
    }

    /// d(X = Y) is symmetric.
    #[test]
    fn equality_is_symmetric(x in arb_trapezoid(), y in arb_trapezoid()) {
        prop_assert_eq!(possibility(&x, CmpOp::Eq, &y), possibility(&y, CmpOp::Eq, &x));
    }

    /// d(X <= Y) = d(Y >= X), and likewise for strict operators.
    #[test]
    fn flipped_operand_duality(x in arb_trapezoid(), y in arb_trapezoid()) {
        prop_assert_eq!(possibility(&x, CmpOp::Le, &y), possibility(&y, CmpOp::Ge, &x));
        prop_assert_eq!(possibility(&x, CmpOp::Lt, &y), possibility(&y, CmpOp::Gt, &x));
        prop_assert_eq!(possibility(&x, CmpOp::Ne, &y), possibility(&y, CmpOp::Ne, &x));
    }

    /// Strict possibility never exceeds the non-strict one, and equality is
    /// bounded by both non-strict orders.
    #[test]
    fn strictness_monotonicity(x in arb_trapezoid(), y in arb_trapezoid()) {
        prop_assert!(possibility(&x, CmpOp::Lt, &y) <= possibility(&x, CmpOp::Le, &y));
        prop_assert!(possibility(&x, CmpOp::Gt, &y) <= possibility(&x, CmpOp::Ge, &y));
        prop_assert!(possibility(&x, CmpOp::Eq, &y) <= possibility(&x, CmpOp::Le, &y));
        prop_assert!(possibility(&x, CmpOp::Eq, &y) <= possibility(&x, CmpOp::Ge, &y));
    }

    /// One of the two orders is always fully possible (normal distributions).
    #[test]
    fn order_totality(x in arb_trapezoid(), y in arb_trapezoid()) {
        let le = possibility(&x, CmpOp::Le, &y);
        let ge = possibility(&x, CmpOp::Ge, &y);
        prop_assert_eq!(le.or(ge), Degree::ONE);
    }

    /// Reflexivity: d(X = X) = 1 and d(X <= X) = 1.
    #[test]
    fn reflexivity(x in arb_trapezoid()) {
        prop_assert_eq!(possibility(&x, CmpOp::Eq, &x), Degree::ONE);
        prop_assert_eq!(possibility(&x, CmpOp::Le, &x), Degree::ONE);
        prop_assert_eq!(possibility(&x, CmpOp::Ge, &x), Degree::ONE);
    }

    /// Necessity never exceeds possibility for normalized convex
    /// distributions (Section 2 of the paper).
    #[test]
    fn necessity_below_possibility(x in arb_trapezoid(), y in arb_trapezoid(), op_idx in 0usize..6) {
        let op = ALL_OPS[op_idx];
        prop_assert!(necessity(&x, op, &y) <= possibility(&x, op, &y));
    }

    /// Zero equality possibility exactly when supports miss each other
    /// (up to boundary-membership subtleties): disjoint supports imply 0.
    #[test]
    fn disjoint_supports_cannot_be_equal(x in arb_trapezoid(), y in arb_trapezoid()) {
        if !x.supports_intersect(&y) {
            prop_assert_eq!(possibility(&x, CmpOp::Eq, &y), Degree::ZERO);
        }
        if x.cores_intersect(&y) {
            prop_assert_eq!(possibility(&x, CmpOp::Eq, &y), Degree::ONE);
        }
    }

    /// Membership degrees returned by equality against a crisp probe match
    /// the membership function.
    #[test]
    fn crisp_probe_is_membership(x in arb_trapezoid(), v in -60.0..60.0f64) {
        let probe = Trapezoid::crisp(v).unwrap();
        prop_assert_eq!(possibility(&probe, CmpOp::Eq, &x), x.membership(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Fuzzy arithmetic: addition is commutative/associative on breakpoints,
    /// and alpha-cuts add like intervals.
    #[test]
    fn arithmetic_laws(x in arb_trapezoid(), y in arb_trapezoid(), z in arb_trapezoid()) {
        use fuzzy_core::arith::{add, sub, neg};
        prop_assert_eq!(add(&x, &y), add(&y, &x));
        let l = add(&add(&x, &y), &z).breakpoints();
        let r = add(&x, &add(&y, &z)).breakpoints();
        let close = |p: (f64, f64, f64, f64), q: (f64, f64, f64, f64)| {
            (p.0 - q.0).abs() < 1e-9 && (p.1 - q.1).abs() < 1e-9
                && (p.2 - q.2).abs() < 1e-9 && (p.3 - q.3).abs() < 1e-9
        };
        prop_assert!(close(l, r));
        prop_assert_eq!(neg(&neg(&x)), x);
        // x - y == x + (-y) by definition; check support widths add.
        let s = sub(&x, &y);
        prop_assert!((s.support_width() - (x.support_width() + y.support_width())).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The similarity closed form (widen-then-intersect) matches the
    /// three-way sup-min definition computed on a grid.
    #[test]
    fn similarity_matches_oracle(x in arb_trapezoid(), y in arb_trapezoid(), tol in 1..8u32) {
        use fuzzy_core::approximately_equal;
        use fuzzy_core::oracle::similarity_grid;
        let tol = tol as f64;
        let exact = approximately_equal(&x, &y, tol).value();
        let approx = similarity_grid(&x, &y, tol, 300).value();
        prop_assert!(approx <= exact + 1e-9, "oracle above closed form: {approx} > {exact}");
        prop_assert!(exact - approx < 0.06, "closed form too high: {exact} vs {approx}");
    }

    /// Similarity interpolates between equality (tol → 0) and certainty of
    /// co-location whenever supports are within tolerance.
    #[test]
    fn similarity_bounds(x in arb_trapezoid(), y in arb_trapezoid()) {
        use fuzzy_core::{approximately_equal, possibility};
        let eq = possibility(&x, CmpOp::Eq, &y);
        let sim_small = approximately_equal(&x, &y, 1e-9);
        let sim_large = approximately_equal(&x, &y, 1e6);
        prop_assert!(sim_small >= eq, "widening can only increase the degree");
        prop_assert!((sim_small.value() - eq.value()).abs() < 1e-3);
        // A huge tolerance drives the degree arbitrarily close to 1 (the
        // crossing point of the widened edges still sits epsilon below it).
        prop_assert!(sim_large.value() > 0.999, "got {}", sim_large);
    }

    /// α-cut consistency: membership(x) >= α exactly when x is inside the
    /// α-cut (up to the closure at α = 0).
    #[test]
    fn alpha_cut_consistency(x in arb_trapezoid(), alpha in 1..=10u32, probe in -60.0..60.0f64) {
        let a = Degree::new(alpha as f64 / 10.0).unwrap();
        let (lo, hi) = x.alpha_cut(a);
        let inside = probe >= lo && probe <= hi;
        let member = x.membership(probe) >= a;
        prop_assert_eq!(inside, member,
            "alpha {} cut [{}, {}] vs membership {} at {}",
            a, lo, hi, x.membership(probe), probe);
    }

    /// Interval-order laws the merge-join depends on: sorting by ⪯ puts
    /// every value that strictly precedes another before it.
    #[test]
    fn interval_order_respects_strictly_before(x in arb_trapezoid(), y in arb_trapezoid()) {
        use fuzzy_core::interval_order::{cmp_values, strictly_before};
        use fuzzy_core::Value;
        let vx = Value::fuzzy(x);
        let vy = Value::fuzzy(y);
        if strictly_before(&vx, &vy) {
            prop_assert_eq!(cmp_values(&vx, &vy), std::cmp::Ordering::Less);
            // And equality is impossible (the merge-join may skip the pair).
            prop_assert_eq!(possibility(&x, CmpOp::Eq, &y), Degree::ZERO);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The α-cut interval order stays a total order at every level, and
    /// "strictly before at α" certifies that the equality degree is below α.
    #[test]
    fn alpha_cut_order_certifies_degrees(
        x in arb_trapezoid(),
        y in arb_trapezoid(),
        alpha in 1..=9u32,
    ) {
        use fuzzy_core::interval_order::{cmp_values_at, strictly_before_at};
        use fuzzy_core::Value;
        let a = Degree::new(alpha as f64 / 10.0).unwrap();
        let vx = Value::fuzzy(x);
        let vy = Value::fuzzy(y);
        // Antisymmetry at every alpha.
        prop_assert_eq!(cmp_values_at(&vx, &vy, a), cmp_values_at(&vy, &vx, a).reverse());
        // The push-down soundness property: disjoint α-cuts imply the
        // equality degree cannot reach α.
        if strictly_before_at(&vx, &vy, a) || strictly_before_at(&vy, &vx, a) {
            let d = possibility(&x, CmpOp::Eq, &y);
            prop_assert!(d < a, "α-cuts disjoint at {} but degree {}", a, d);
        }
        // Conversely, degree >= alpha implies the α-cuts intersect.
        if possibility(&x, CmpOp::Eq, &y) >= a {
            prop_assert!(!strictly_before_at(&vx, &vy, a));
            prop_assert!(!strictly_before_at(&vy, &vx, a));
        }
    }
}

/// Any value kind the sort keys: NULL, text, crisp numbers (including both
/// zeros, since `Value::Number(-0.0)` bypasses the constructor), and fuzzy
/// numbers, some sharing supports or breakpoints so ties reach every
/// tie-breaker.
fn arb_value() -> impl Strategy<Value = fuzzy_core::Value> {
    use fuzzy_core::Value;
    prop_oneof![
        Just(Value::Null),
        (0usize..4).prop_map(|i| Value::text(["", "ann", "bob", "zed"][i])),
        (-3i32..4).prop_map(|i| Value::number(f64::from(i))),
        Just(Value::Number(-0.0)),
        arb_trapezoid().prop_map(Value::fuzzy),
        (0i32..3, 0i32..3).prop_map(|(b, c)| {
            let (b, c) = (f64::from(b), f64::from(c));
            Value::fuzzy(Trapezoid::new(-0.0, b, b + c, 6.0).expect("ordered"))
        }),
        // Distinct trapezoids sharing the core [0, 2] (the α = 1 cut), with
        // the core's left end a signed zero.
        (0i32..3, 0i32..3, 0usize..2).prop_map(|(l, r, z)| {
            let (l, r, z) = (f64::from(l), f64::from(r), [0.0, -0.0][z]);
            Value::fuzzy(Trapezoid::new(z - l, z, 2.0, 2.0 + r).expect("ordered"))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The precomputed sort key orders exactly like the value comparator it
    /// replaces in the external sort, at every α.
    #[test]
    fn order_key_matches_cmp_values_at(
        x in arb_value(),
        y in arb_value(),
        alpha in prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64],
    ) {
        use fuzzy_core::interval_order::{cmp_values_at, OrderKey};
        let a = Degree::new(alpha).unwrap();
        prop_assert_eq!(OrderKey::at(&x, a).cmp_key(&OrderKey::at(&y, a)), cmp_values_at(&x, &y, a));
        prop_assert_eq!(OrderKey::at(&x, a).cmp_key(&OrderKey::at(&x, a)), std::cmp::Ordering::Equal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The normalized prefix never contradicts the full key order, so the
    /// sort's prefixed comparator — prefix first, the full key on a tie —
    /// orders every pair exactly like `cmp_key`.
    #[test]
    fn order_key_prefix_agrees_with_cmp_key(
        x in arb_value(),
        y in arb_value(),
        alpha in prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64],
    ) {
        use fuzzy_core::interval_order::OrderKey;
        use std::cmp::Ordering;
        let a = Degree::new(alpha).unwrap();
        let (kx, ky) = (OrderKey::at(&x, a), OrderKey::at(&y, a));
        let full = kx.cmp_key(&ky);
        let by_prefix = kx.prefix().cmp(&ky.prefix());
        prop_assert!(by_prefix == Ordering::Equal || by_prefix == full,
            "prefix says {by_prefix:?}, key says {full:?} for {x:?} vs {y:?} at {alpha}");
        prop_assert_eq!(by_prefix.then_with(|| kx.cmp_key(&ky)), full);
    }
}

#[test]
fn order_key_keeps_signed_zeros_equal() {
    use fuzzy_core::interval_order::{cmp_values_at, OrderKey};
    use fuzzy_core::Value;
    let (neg, pos) = (Value::Number(-0.0), Value::number(0.0));
    for a in [Degree::ZERO, Degree::new(0.5).unwrap(), Degree::ONE] {
        assert_eq!(cmp_values_at(&neg, &pos, a), std::cmp::Ordering::Equal);
        assert_eq!(
            OrderKey::at(&neg, a).cmp_key(&OrderKey::at(&pos, a)),
            std::cmp::Ordering::Equal
        );
        assert_eq!(OrderKey::at(&neg, a).prefix(), OrderKey::at(&pos, a).prefix());
    }
}
