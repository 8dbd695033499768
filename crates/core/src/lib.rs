//! # fuzzy-engine
//!
//! The core contribution of *"Efficient Processing of Nested Fuzzy SQL
//! Queries in a Fuzzy Database"* (Yang et al., ICDE 1995 / TKDE 2001):
//! unnesting transformations for nested Fuzzy SQL queries and the extended
//! fuzzy merge-join that evaluates the unnested forms.
//!
//! * [`naive`] — the semantics-faithful nested evaluator (the reference the
//!   equivalence theorems are checked against);
//! * [`unnest`] — the transformations of Sections 4–8 (types N, J, JX, JA,
//!   JALL, K-level chains) producing [`plan::UnnestPlan`]s;
//! * [`exec`] — lowering of a plan to the operator tree of a strategy, and
//!   the physical operators: interval-order external sort, the extended
//!   merge-join window over `Rng(r)` (Section 3), anti accumulation
//!   (JX′/JALL′), the pipelined aggregate evaluation (JA′/COUNT′), and the
//!   block nested loop the Section 9 baselines lower every step to;
//! * [`verify`] — the static plan verifier: physical-property analysis
//!   (⪯-sort orders, degree bounds, duplicate policy, binding provenance)
//!   and equivalence-rule linting for every plan before it runs;
//! * [`engine`] — the one statement pipeline (plan, verify, cache, lower,
//!   drive) for the three physical strategies, the naive oracle, and I/O/CPU
//!   measurement.
//!
//! ## Example
//!
//! ```text
//! let disk = SimDisk::with_default_page_size();
//! let catalog = fuzzy_workload::paper::dating_service(&disk)?;
//! let engine = Engine::over(Arc::new(catalog), &disk);
//! let nested = engine.run_sql(QUERY_2, Strategy::NestedLoop)?;
//! let unnested = engine.run_sql(QUERY_2, Strategy::Unnest)?;
//! assert_eq!(nested.answer.canonicalized(), unnested.answer.canonicalized());
//! // Both ran a verified operator tree; EXPLAIN renders the cached one.
//! let q = fuzzy_sql::parse(QUERY_2)?;
//! let (text, _) = engine.explain(&q, Strategy::NestedLoop, ExplainMode::Plan)?;
//! println!("{text}");
//! ```
//!
//! (See the `fuzzy-db` facade crate and the repository examples for runnable
//! end-to-end snippets; this crate avoids a circular dev-dependency on the
//! workload crate in its doctests.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod exec;
pub mod explain;
pub mod metrics;
pub mod naive;
pub mod optimizer;
pub mod plan;
pub mod plan_cache;
pub mod stats_histogram;
pub mod unnest;
pub mod verify;

pub use engine::{Engine, EngineContext, QueryOutcome, Strategy};
pub use error::{EngineError, Result};
pub use exec::{ExecConfig, Executor, JoinMethod};
pub use metrics::{
    OpKind, OperatorMetrics, OperatorNode, QueryMetrics, ServingCounters, ServingInfo, SortPhases,
};
pub use naive::NaiveEvaluator;
pub use plan::{RewriteRule, UnnestPlan};
pub use plan_cache::{CacheStats, PlanCache, Planned, DEFAULT_PLAN_CACHE_CAPACITY};
pub use stats_histogram::{Histogram, StatsRegistry};
pub use unnest::build_plan;
pub use verify::{check_threshold, Outline, PhysOp, Prop, VerifiedPlan, Violation};
