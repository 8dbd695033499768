//! K-level chain (linear) queries — Section 8 / Theorem 8.1.
//!
//! Builds a three-relation supply database (suppliers → parts → shipments)
//! with ill-known quantities and runs 2-, 3-, and 4-level chain queries,
//! showing that the unnested K-way merge-join plan matches the naive nested
//! evaluation while touching each relation only O(n log n) times.
//!
//! ```sh
//! cargo run --example chain_query
//! ```

use fuzzy_db::core::{Trapezoid, Value};
use fuzzy_db::rel::{AttrType, Schema, Tuple};
use fuzzy_db::{Database, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();
    db.define_term("roughly 100", Trapezoid::new(80.0, 95.0, 105.0, 120.0)?);

    db.create_table(
        "SUPPLIERS",
        Schema::of(&[("NAME", AttrType::Text), ("RATING", AttrType::Number)]),
    )?;
    db.create_table(
        "PARTS",
        Schema::of(&[("RATING", AttrType::Number), ("WEIGHT", AttrType::Number)]),
    )?;
    db.create_table(
        "SHIPMENTS",
        Schema::of(&[("WEIGHT", AttrType::Number), ("QTY", AttrType::Number)]),
    )?;
    db.create_table(
        "ORDERS",
        Schema::of(&[("QTY", AttrType::Number), ("PRIORITY", AttrType::Number)]),
    )?;

    let about = |v: f64, w: f64| Value::fuzzy(Trapezoid::about(v, w).expect("w > 0"));
    db.load(
        "SUPPLIERS",
        (0..12).map(|i| Tuple::full(vec![Value::text(format!("s{i}")), about(i as f64, 1.5)])),
    )?;
    db.load(
        "PARTS",
        (0..12).map(|i| Tuple::full(vec![about(i as f64, 1.0), about(10.0 + i as f64, 2.0)])),
    )?;
    db.load(
        "SHIPMENTS",
        (0..12).map(|i| {
            Tuple::full(vec![about(10.0 + i as f64, 1.0), about(90.0 + 2.0 * i as f64, 5.0)])
        }),
    )?;
    db.load(
        "ORDERS",
        (0..12)
            .map(|i| Tuple::full(vec![about(88.0 + 2.0 * i as f64, 4.0), Value::number(i as f64)])),
    )?;

    let chains = [
        (
            2usize,
            "SELECT SUPPLIERS.NAME FROM SUPPLIERS WHERE SUPPLIERS.RATING IN \
             (SELECT PARTS.RATING FROM PARTS WHERE PARTS.WEIGHT >= 15)"
                .to_string(),
        ),
        (
            3,
            "SELECT SUPPLIERS.NAME FROM SUPPLIERS WHERE SUPPLIERS.RATING IN \
             (SELECT PARTS.RATING FROM PARTS WHERE PARTS.WEIGHT IN \
              (SELECT SHIPMENTS.WEIGHT FROM SHIPMENTS WHERE SHIPMENTS.QTY = 'roughly 100'))"
                .to_string(),
        ),
        (
            4,
            "SELECT SUPPLIERS.NAME FROM SUPPLIERS WHERE SUPPLIERS.RATING IN \
             (SELECT PARTS.RATING FROM PARTS WHERE PARTS.WEIGHT IN \
              (SELECT SHIPMENTS.WEIGHT FROM SHIPMENTS WHERE SHIPMENTS.QTY IN \
               (SELECT ORDERS.QTY FROM ORDERS WHERE ORDERS.PRIORITY <= 6)))"
                .to_string(),
        ),
    ];

    for (k, sql) in &chains {
        println!("== {k}-level chain ==");
        let unnest = db.query(sql).strategy(Strategy::Unnest).run()?;
        let naive = db.query(sql).strategy(Strategy::Naive).run()?;
        assert_eq!(
            unnest.answer.canonicalized(),
            naive.answer.canonicalized(),
            "Theorem 8.1 violated at K = {k}"
        );
        println!(
            "plan {} | unnest: {} reads / cpu {:?} | naive: {} reads / cpu {:?}",
            unnest.plan_label,
            unnest.measurement.io.reads,
            unnest.measurement.cpu,
            naive.measurement.io.reads,
            naive.measurement.cpu,
        );
        println!("{}", unnest.answer);
    }
    Ok(())
}
