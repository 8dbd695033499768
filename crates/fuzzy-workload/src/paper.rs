//! The datasets of the paper's running examples.
//!
//! * the dating-service relations `F` and `M` of Section 2 / Example 4.1
//!   (Fig. 2 data);
//! * the `EMP_SALES` / `EMP_RESEARCH` relations of Query 4 (type JX);
//! * the `CITIES_REGION_A` / `CITIES_REGION_B` relations of Query 5 (type JA).
//!
//! All catalogs use the calibrated paper vocabulary
//! ([`fuzzy_core::Vocabulary::paper`]).

use fuzzy_core::{Value, Vocabulary};
use fuzzy_rel::{AttrType, Catalog, Relation, Schema, StoredTable, Tuple};
use fuzzy_storage::{Result, SimDisk};

/// Builds the dating-service catalog: tables `F` and `M` with attributes
/// `ID, NAME, AGE, INCOME` (incomes in thousands of dollars), exactly the
/// tuples of Example 4.1.
pub fn dating_service(disk: &SimDisk) -> Result<Catalog> {
    let mut catalog = Catalog::with_paper_vocabulary();
    let schema = || {
        Schema::of(&[
            ("ID", AttrType::Number),
            ("NAME", AttrType::Text),
            ("AGE", AttrType::Number),
            ("INCOME", AttrType::Number),
        ])
        .with_key("ID")
    };
    let v = Vocabulary::paper();
    let term = |name: &str| Value::fuzzy(*v.get(name).expect("paper term"));

    let f = StoredTable::create(disk, "F", schema());
    f.load([
        person(101.0, "Ann", term("about 35"), term("about 60K")),
        person(102.0, "Ann", term("medium young"), term("medium high")),
        person(103.0, "Betty", term("middle age"), term("high")),
        person(104.0, "Cathy", term("about 50"), term("low")),
    ])?;
    catalog.register(f);

    let m = StoredTable::create(disk, "M", schema());
    m.load([
        person(201.0, "Allen", Value::number(24.0), term("about 25K")),
        person(202.0, "Allen", term("about 50"), term("about 40K")),
        person(203.0, "Bill", term("middle age"), term("high")),
        person(204.0, "Carl", term("about 29"), term("medium low")),
    ])?;
    catalog.register(m);
    Ok(catalog)
}

fn person(id: f64, name: &str, age: Value, income: Value) -> Tuple {
    Tuple::full(vec![Value::number(id), Value::text(name), age, income])
}

/// Builds the employees catalog of Query 4: `EMP_SALES` and `EMP_RESEARCH`
/// with `ID, NAME, AGE, INCOME`.
pub fn employees(disk: &SimDisk) -> Result<Catalog> {
    let mut catalog = Catalog::with_paper_vocabulary();
    let schema = || {
        Schema::of(&[
            ("ID", AttrType::Number),
            ("NAME", AttrType::Text),
            ("AGE", AttrType::Number),
            ("INCOME", AttrType::Number),
        ])
        .with_key("ID")
    };
    let v = Vocabulary::paper();
    let term = |name: &str| Value::fuzzy(*v.get(name).expect("paper term"));

    let sales = StoredTable::create(disk, "EMP_SALES", schema());
    sales.load([
        person(1.0, "Dana", term("medium young"), term("medium high")),
        person(2.0, "Eli", term("about 35"), term("about 40K")),
        person(3.0, "Fay", term("about 50"), term("low")),
        person(4.0, "Gus", Value::number(28.0), term("about 60K")),
    ])?;
    catalog.register(sales);

    let research = StoredTable::create(disk, "EMP_RESEARCH", schema());
    research.load([
        person(11.0, "Hal", term("medium young"), term("medium high")),
        person(12.0, "Ida", term("middle age"), term("high")),
        person(13.0, "Joe", term("about 29"), term("about 40K")),
    ])?;
    catalog.register(research);
    Ok(catalog)
}

/// Builds the cities catalog of Query 5: `CITIES_REGION_A` and
/// `CITIES_REGION_B` with `NAME, POPULATION, AVE_HOME_INCOME`
/// (population in thousands, income in thousands of dollars).
pub fn cities(disk: &SimDisk) -> Result<Catalog> {
    let mut catalog = Catalog::with_paper_vocabulary();
    // Population terms specific to this scenario.
    {
        let vocab = catalog.vocabulary_mut();
        let tri = |a: f64, b: f64, c: f64| fuzzy_core::Trapezoid::triangular(a, b, c).unwrap();
        vocab.define("small city", tri(0.0, 50.0, 120.0));
        vocab.define("mid-size city", tri(80.0, 200.0, 350.0));
        vocab.define("large city", tri(300.0, 700.0, 1200.0));
    }
    let schema = || {
        Schema::of(&[
            ("NAME", AttrType::Text),
            ("POPULATION", AttrType::Number),
            ("AVE_HOME_INCOME", AttrType::Number),
        ])
        .with_key("NAME")
    };
    let v = catalog.vocabulary().clone();
    let term = |name: &str| Value::fuzzy(*v.get(name).expect("term"));

    let a = StoredTable::create(disk, "CITIES_REGION_A", schema());
    a.load([
        city("Avon", term("small city"), Value::number(72.0)),
        city("Arden", term("mid-size city"), term("about 60K")),
        city("Alta", Value::number(650.0), term("high")),
    ])?;
    catalog.register(a);

    let b = StoredTable::create(disk, "CITIES_REGION_B", schema());
    b.load([
        city("Bray", term("small city"), Value::number(55.0)),
        city("Brent", term("mid-size city"), term("about 40K")),
        city("Boone", term("large city"), term("medium high")),
    ])?;
    catalog.register(b);
    Ok(catalog)
}

fn city(name: &str, population: Value, income: Value) -> Tuple {
    Tuple::full(vec![Value::text(name), population, income])
}

/// Reads a table fully into memory (test convenience).
pub fn snapshot(catalog: &Catalog, table: &str) -> Result<Relation> {
    catalog.table(table).unwrap_or_else(|| panic!("table {table} in catalog")).to_relation()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dating_catalog_has_paper_tuples() {
        let disk = SimDisk::with_default_page_size();
        let c = dating_service(&disk).unwrap();
        let f = snapshot(&c, "F").unwrap();
        let m = snapshot(&c, "M").unwrap();
        assert_eq!(f.len(), 4);
        assert_eq!(m.len(), 4);
        assert_eq!(f.tuples()[0].values[1], Value::text("Ann"));
        assert_eq!(m.tuples()[0].values[2], Value::number(24.0));
        assert!(c.vocabulary().get("medium young").is_some());
    }

    #[test]
    fn employees_and_cities_catalogs_load() {
        let disk = SimDisk::with_default_page_size();
        let e = employees(&disk).unwrap();
        assert_eq!(snapshot(&e, "EMP_SALES").unwrap().len(), 4);
        assert_eq!(snapshot(&e, "EMP_RESEARCH").unwrap().len(), 3);
        let c = cities(&disk).unwrap();
        assert_eq!(snapshot(&c, "CITIES_REGION_A").unwrap().len(), 3);
        assert!(c.vocabulary().get("large city").is_some());
    }
}
