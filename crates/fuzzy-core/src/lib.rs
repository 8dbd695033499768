//! # fuzzy-core
//!
//! Fuzzy set theory substrate for the fuzzy relational database reproducing
//! *"Efficient Processing of Nested Fuzzy SQL Queries in a Fuzzy Database"*
//! (Yang, Zhang, Liu, Wu, Yu, Nakajima, Rishe; ICDE 1995 / TKDE 2001).
//!
//! This crate implements:
//!
//! * [`Degree`] — satisfaction/membership degrees in `[0, 1]` with the fuzzy
//!   connectives used throughout the paper (AND = min, OR = max, NOT = 1 − d);
//! * [`Trapezoid`] — trapezoidal possibility distributions with supports,
//!   cores, α-cuts and defuzzification;
//! * [`compare`] — exact possibility degrees `d(X θ Y)` for every comparison
//!   operator, plus necessity and tolerance-based similarity;
//! * [`arith`] — fuzzy interval arithmetic backing `SUM`/`AVG`, and the
//!   defuzzified ordering backing `MIN`/`MAX` (Section 6 semantics);
//! * [`interval_order`] — the linear order `⪯` of Definition 3.1 that makes
//!   the extended merge-join possible, and [`interval_order::OrderKey`], the
//!   precomputed α-cut key the external sort compares, normalized prefix
//!   first;
//! * [`hash`] — [`hash::ValueHashBuilder`], the seeded multiply-mix hasher
//!   behind every map keyed by values (answer dedup, aggregate groups,
//!   `GROUP BY`);
//! * [`Vocabulary`] — linguistic terms ("medium young", "about 35", …),
//!   including the calibrated vocabulary of the paper's running example;
//! * [`oracle`] — a brute-force numeric reference used by property tests.
//!
//! ## Example
//!
//! ```
//! use fuzzy_core::{Trapezoid, Value, CmpOp};
//!
//! // Ages known only vaguely still compare with a graded possibility.
//! let medium_young = Value::fuzzy(Trapezoid::new(20.0, 25.0, 30.0, 35.0)?);
//! let crisp = Value::number(24.0);
//! let d = crisp.compare(CmpOp::Eq, &medium_young);
//! assert!((d.value() - 0.8).abs() < 1e-12);
//! # Ok::<(), fuzzy_core::FuzzyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod compare;
pub mod degree;
pub mod error;
pub mod hash;
pub mod interval_order;
pub mod oracle;
pub mod trapezoid;
pub mod value;
pub mod vocab;

pub use compare::{approximately_equal, necessity, possibility, CmpOp};
pub use degree::Degree;
pub use error::{FuzzyError, Result};
pub use trapezoid::Trapezoid;
pub use value::Value;
pub use vocab::Vocabulary;
