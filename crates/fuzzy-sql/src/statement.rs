//! Statements beyond SELECT: the DDL/DML surface of the database.
//!
//! The paper's system (Omron's Fuzzy LUNA) is queried through SELECT; this
//! module defines the statements a usable database needs, with fuzzy-aware
//! semantics:
//!
//! * `CREATE TABLE t (col TEXT | NUMBER [KEY], …)`
//! * `DEFINE TERM 'name' AS TRAP(a, b, c, d) | TRI(a, b, c) | ABOUT(v, w)`
//! * `INSERT INTO t VALUES (v, …) [WITH D = d]` — the optional degree makes
//!   the tuple a partial member of the relation;
//! * `DELETE FROM t [WHERE …] [WITH D > z]` — removes the tuples satisfying
//!   the condition with positive degree (or meeting the threshold);
//! * `UPDATE t SET col = v, … [WHERE …] [WITH D > z]` — same matching rule;
//! * `ANALYZE [t]` and `EXPLAIN [ANALYZE | VERIFY] <select>`.
//!
//! [`parse_statement`] parses every form, SELECT included, on the one
//! [`parser`](crate::parser) cursor: a DELETE or UPDATE tail is the WHERE and
//! WITH productions of a SELECT, and nothing else, and EXPLAIN's query is
//! parsed in place. The grammar is in the `parser` module doc.

use crate::ast::{ColumnRef, Operand, Predicate, Query, Threshold};
use crate::error::Result;
use crate::parser::Parser;

/// A column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// True for TEXT columns, false for NUMBER.
    pub is_text: bool,
    /// True if this column is the designated key.
    pub key: bool,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A SELECT query.
    Select(Query),
    /// `CREATE TABLE name (col TYPE [KEY], …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `DEFINE TERM 'name' AS <fuzzy literal>`.
    DefineTerm {
        /// The linguistic term.
        name: String,
        /// Its trapezoid, as `(a, b, c, d)`.
        shape: (f64, f64, f64, f64),
    },
    /// `INSERT INTO t VALUES (…) [WITH D = d]`.
    Insert {
        /// Target table.
        table: String,
        /// Row values (operands: numbers, quoted terms, fuzzy literals).
        values: Vec<Operand>,
        /// Membership degree of the new tuple (default 1).
        degree: f64,
    },
    /// `DELETE FROM t [WHERE …] [WITH D > z]`.
    Delete {
        /// Target table.
        table: String,
        /// Matching conjunction (empty = all tuples).
        predicates: Vec<Predicate>,
        /// Optional matching threshold.
        threshold: Option<Threshold>,
    },
    /// `UPDATE t SET col = v, … [WHERE …] [WITH D > z]`.
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        assignments: Vec<(ColumnRef, Operand)>,
        /// Matching conjunction.
        predicates: Vec<Predicate>,
        /// Optional matching threshold.
        threshold: Option<Threshold>,
    },
    /// `ANALYZE [table]` — build optimizer histograms for the numeric
    /// columns of one table (or of every table).
    Analyze {
        /// The table to analyze, or `None` for all.
        table: Option<String>,
    },
    /// `EXPLAIN [ANALYZE | VERIFY] <select>` — render the unnested plan (or
    /// naive fallback) for a query; with `ANALYZE`, run it and annotate the
    /// plan with the per-operator counters actually observed; with `VERIFY`,
    /// run the static plan verifier and report the physical-property checks.
    Explain {
        /// Which flavour of EXPLAIN was requested.
        mode: ExplainMode,
        /// The query being explained.
        query: Query,
    },
}

/// The flavour of an `EXPLAIN` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainMode {
    /// Plain `EXPLAIN`: the deterministic plan rendering.
    #[default]
    Plan,
    /// `EXPLAIN ANALYZE`: execute and report actual per-operator metrics.
    Analyze,
    /// `EXPLAIN VERIFY`: run the static plan verifier and report its checks.
    Verify,
}

/// Parses one statement (SELECT or DDL/DML).
///
/// ```
/// use fuzzy_sql::{parse_statement, Statement};
///
/// let stmt = parse_statement("INSERT INTO F VALUES (1, 'Ann', ABOUT(35, 5))")?;
/// assert!(matches!(stmt, Statement::Insert { degree, .. } if degree == 1.0));
/// # Ok::<(), fuzzy_sql::ParseError>(())
/// ```
pub fn parse_statement(src: &str) -> Result<Statement> {
    Parser::new(src)?.statement()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::CmpOp;

    #[test]
    fn parses_create_table() {
        let s =
            parse_statement("CREATE TABLE People (ID NUMBER KEY, NAME TEXT, AGE NUMBER)").unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "People");
                assert_eq!(columns.len(), 3);
                assert!(columns[0].key);
                assert!(columns[1].is_text);
                assert!(!columns[2].is_text);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("CREATE TABLE T (A NUMBER KEY, B TEXT KEY)").is_err());
        assert!(parse_statement("CREATE TABLE T (A BLOB)").is_err());
    }

    #[test]
    fn parses_define_term() {
        let s = parse_statement("DEFINE TERM 'warm' AS TRAP(10, 18, 24, 30)").unwrap();
        assert_eq!(
            s,
            Statement::DefineTerm { name: "warm".into(), shape: (10.0, 18.0, 24.0, 30.0) }
        );
        let s = parse_statement("DEFINE TERM 'about 7' AS ABOUT(7, 2)").unwrap();
        assert_eq!(
            s,
            Statement::DefineTerm { name: "about 7".into(), shape: (5.0, 7.0, 7.0, 9.0) }
        );
        let s = parse_statement("DEFINE TERM 'peak' AS TRI(0, 5, 10)").unwrap();
        assert!(matches!(s, Statement::DefineTerm { shape: (0.0, 5.0, 5.0, 10.0), .. }));
    }

    #[test]
    fn parses_insert() {
        let s = parse_statement(
            "INSERT INTO F VALUES (101, 'Ann', ABOUT(35, 5), 'medium high') WITH D = 0.9",
        )
        .unwrap();
        match s {
            Statement::Insert { table, values, degree } => {
                assert_eq!(table, "F");
                assert_eq!(values.len(), 4);
                assert!(matches!(values[2], Operand::FuzzyLiteral(30.0, 35.0, 35.0, 40.0)));
                assert_eq!(degree, 0.9);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("INSERT INTO F VALUES (1) WITH D = 1.5").is_err());
    }

    #[test]
    fn parses_delete_and_update() {
        let s = parse_statement("DELETE FROM F WHERE F.AGE = 'about 50' WITH D > 0.5").unwrap();
        match s {
            Statement::Delete { table, predicates, threshold } => {
                assert_eq!(table, "F");
                assert_eq!(predicates.len(), 1);
                assert!(threshold.unwrap().strict);
            }
            other => panic!("{other:?}"),
        }
        let s = parse_statement("DELETE FROM F").unwrap();
        assert!(matches!(s, Statement::Delete { ref predicates, .. } if predicates.is_empty()));

        let s = parse_statement(
            "UPDATE F SET INCOME = TRI(50, 60, 70), NAME = 'Anna' WHERE F.NAME = 'Ann'",
        )
        .unwrap();
        match s {
            Statement::Update { assignments, predicates, .. } => {
                assert_eq!(assignments.len(), 2);
                assert!(matches!(predicates[0], Predicate::Compare { op: CmpOp::Eq, .. }));
            }
            other => panic!("{other:?}"),
        }

        // An error inside the tail points at the bad token (the second `=`),
        // as the same clause does inside a SELECT.
        let sql = "DELETE FROM F WHERE F.X = = 1";
        assert_eq!(parse_statement(sql).unwrap_err().offset, 26);
        let sql = "UPDATE F SET X = 1 WHERE F.X = = 1";
        assert_eq!(parse_statement(sql).unwrap_err().offset, sql.rfind('=').unwrap());
        let sql = "SELECT F.X FROM F WHERE F.X = = 1";
        assert_eq!(crate::parse(sql).unwrap_err().offset, sql.rfind('=').unwrap());
    }

    #[test]
    fn select_routes_to_the_main_parser() {
        let s = parse_statement("SELECT F.NAME FROM F").unwrap();
        assert!(matches!(s, Statement::Select(_)));
    }

    #[test]
    fn parses_analyze() {
        assert_eq!(
            parse_statement("ANALYZE PEOPLE").unwrap(),
            Statement::Analyze { table: Some("PEOPLE".into()) }
        );
        assert_eq!(parse_statement("ANALYZE").unwrap(), Statement::Analyze { table: None });
        assert!(parse_statement("ANALYZE a b").is_err());
    }

    #[test]
    fn parses_explain() {
        let s = parse_statement("EXPLAIN SELECT F.NAME FROM F").unwrap();
        match s {
            Statement::Explain { mode, query } => {
                assert_eq!(mode, ExplainMode::Plan);
                assert_eq!(query.from.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        let s =
            parse_statement("explain analyze SELECT F.NAME FROM F WHERE F.AGE = 'young'").unwrap();
        assert!(matches!(s, Statement::Explain { mode: ExplainMode::Analyze, .. }));
        let s = parse_statement("EXPLAIN VERIFY SELECT F.NAME FROM F").unwrap();
        assert!(matches!(s, Statement::Explain { mode: ExplainMode::Verify, .. }));
        // Errors inside the query are reported at the right offset.
        let e = parse_statement("EXPLAIN SELECT").unwrap_err();
        assert!(e.offset >= "EXPLAIN ".len(), "offset {} not rebased", e.offset);
        assert!(parse_statement("EXPLAIN").is_err());
        assert!(parse_statement("EXPLAIN ANALYZE").is_err());
        assert!(parse_statement("EXPLAIN VERIFY").is_err());
    }

    #[test]
    fn junk_statements_error() {
        assert!(parse_statement("DROP TABLE F").is_err());
        assert!(parse_statement("").is_err());
        assert!(parse_statement("INSERT INTO F VALUES (1) garbage").is_err());
    }
}

#[cfg(test)]
mod negative_number_tests {
    use super::*;

    #[test]
    fn negative_breakpoints_in_terms() {
        let s = parse_statement("DEFINE TERM 'freezing' AS TRAP(-30, -20, -5, 0)").unwrap();
        assert_eq!(
            s,
            Statement::DefineTerm { name: "freezing".into(), shape: (-30.0, -20.0, -5.0, 0.0) }
        );
        let s = parse_statement("INSERT INTO T VALUES (-7, ABOUT(-2, 1))").unwrap();
        match s {
            Statement::Insert { values, .. } => {
                assert_eq!(values[0], Operand::Number(-7.0));
                assert!(matches!(values[1], Operand::FuzzyLiteral(-3.0, -2.0, -2.0, -1.0)));
            }
            other => panic!("{other:?}"),
        }
    }
}
