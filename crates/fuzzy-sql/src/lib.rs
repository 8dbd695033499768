//! # fuzzy-sql
//!
//! Front end for the Fuzzy SQL language of the paper (as defined in the Omron
//! Fuzzy LUNA manuals, \[25\], \[23\]): lexer, AST, recursive-descent parser, and
//! the classifier that maps nested queries onto the paper's type catalogue
//! (N, J, JX, JA, JALL, chains — Sections 4–8).
//!
//! One parser reads the whole language: [`parse`] (a SELECT) and
//! [`parse_statement`] (SELECT, EXPLAIN, CREATE TABLE, DEFINE TERM, INSERT,
//! DELETE, UPDATE, ANALYZE) each tokenize their input once and run every
//! production on that one token cursor. The grammar is in the [`parser`]
//! module doc.
//!
//! ## Example
//!
//! ```
//! use fuzzy_sql::{parse, classify, QueryClass};
//!
//! // The paper's Query 2: a type N nested query.
//! let q = parse(
//!     "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
//!      (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')",
//! )?;
//! assert_eq!(classify(&q), QueryClass::TypeN);
//! assert_eq!(q.depth(), 2);
//! # Ok::<(), fuzzy_sql::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod classify;
pub mod display;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod statement;
pub mod token;

pub use ast::{
    AggFunc, ColumnRef, HavingOperand, HavingPredicate, Operand, OrderBy, OrderKey, Predicate,
    Quantifier, Query, SelectItem, TableRef, Threshold,
};
pub use classify::{chain_depth, classify, is_correlated, QueryClass};
pub use error::{ParseError, Result};
pub use parser::parse;
pub use statement::{parse_statement, ColumnDef, ExplainMode, Statement};
