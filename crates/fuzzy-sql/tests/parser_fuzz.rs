//! Parser robustness: random and mutated inputs must produce errors, never
//! panics, and valid queries must round-trip through Display.

use fuzzy_sql::{parse, parse_statement, ExplainMode, Statement};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary strings never panic the lexer/parser.
    #[test]
    fn arbitrary_strings_never_panic(s in ".{0,160}") {
        let _ = parse(&s);
        let _ = parse_statement(&s);
    }

    /// SQL-flavoured token soup never panics either.
    #[test]
    fn token_soup_never_panics(parts in prop::collection::vec(
        prop_oneof![
            Just("SELECT".to_string()), Just("FROM".to_string()), Just("WHERE".to_string()),
            Just("AND".to_string()), Just("IN".to_string()), Just("NOT".to_string()),
            Just("ALL".to_string()), Just("(".to_string()), Just(")".to_string()),
            Just(",".to_string()), Just("=".to_string()), Just("<".to_string()),
            Just(">=".to_string()), Just("~".to_string()), Just("WITHIN".to_string()),
            Just("R.X".to_string()), Just("S.Y".to_string()), Just("'term'".to_string()),
            Just("1.5".to_string()), Just("GROUP".to_string()), Just("BY".to_string()),
            Just("ORDER".to_string()), Just("LIMIT".to_string()), Just("WITH".to_string()),
            Just("D".to_string()), Just("TRAP".to_string()), Just("MAX".to_string()),
            Just("INSERT".to_string()), Just("VALUES".to_string()), Just("DELETE".to_string()),
        ],
        0..24,
    )) {
        let s = parts.join(" ");
        let _ = parse(&s);
        let _ = parse_statement(&s);
    }

    /// Every successfully parsed SELECT renders to SQL that re-parses to the
    /// same AST (Display round-trip as a property, not just examples), and
    /// parses to the same query through every statement form that holds
    /// one: as a statement, under EXPLAIN, and (single-table) as the
    /// WHERE/WITH tail of a DELETE.
    #[test]
    fn parsed_queries_roundtrip(parts in prop::collection::vec(
        prop_oneof![
            Just("SELECT R.X FROM R".to_string()),
            Just("SELECT R.X, S.Y FROM R, S WHERE R.X = S.Y".to_string()),
            Just("SELECT R.X FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)".to_string()),
            Just("SELECT R.X FROM R WHERE R.Y ~ 5 WITHIN 2 ORDER BY D DESC LIMIT 3".to_string()),
            Just("SELECT R.X FROM R WHERE R.Y > (SELECT AVG(S.Z) FROM S) WITH D > 0.4".to_string()),
            Just("SELECT R.X FROM R WHERE R.Y = ABOUT(3, 1) AND R.Z <> 'low' WITH D >= 0.25"
                .to_string()),
            Just("SELECT R.K, MIN(D) FROM R WHERE NOT EXISTS (SELECT S.Z FROM S WHERE S.V = R.U) \
                  GROUP BY R.K HAVING COUNT(*) > 1".to_string()),
        ],
        1..2,
    )) {
        for src in parts {
            let q1 = parse(&src).expect("known-good query");
            let q2 = parse(&q1.to_string()).expect("rendered query must re-parse");
            prop_assert_eq!(parse_statement(&src), Ok(Statement::Select(q1.clone())));
            for (prefix, mode) in [
                ("EXPLAIN", ExplainMode::Plan),
                ("EXPLAIN ANALYZE", ExplainMode::Analyze),
                ("explain verify", ExplainMode::Verify),
            ] {
                prop_assert_eq!(
                    parse_statement(&format!("{prefix} {src}")),
                    Ok(Statement::Explain { mode, query: q1.clone() })
                );
            }
            if q1.from.len() == 1 {
                let mut tail = String::new();
                for (i, p) in q1.predicates.iter().enumerate() {
                    tail += &format!(" {} {p}", if i == 0 { "WHERE" } else { "AND" });
                }
                if let Some(t) = q1.with_threshold {
                    tail += &format!(" WITH D {} {}", if t.strict { ">" } else { ">=" }, t.z);
                }
                prop_assert_eq!(
                    parse_statement(&format!("DELETE FROM R{tail}")),
                    Ok(Statement::Delete {
                        table: "R".into(),
                        predicates: q1.predicates.clone(),
                        threshold: q1.with_threshold,
                    })
                );
            }
            prop_assert_eq!(q1, q2);
        }
    }
}
