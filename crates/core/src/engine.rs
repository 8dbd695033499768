//! The query engine: strategy dispatch, plan caching, and measurement.
//!
//! [`Engine`] is an **owned handle**: it holds an [`Arc`] snapshot of the
//! catalog plus an [`Arc`] of the [`EngineContext`] (disk, statistics, plan
//! cache, serving counters), so it is `Send + Sync` and can be constructed
//! per statement without borrowing the database for its lifetime. A serving
//! layer (see the `fuzzy-db` facade) hands every session an engine over the
//! current catalog snapshot and the database's one context. DDL, DEFINE
//! TERM and ANALYZE bump the catalog's schema version, which invalidates
//! cached plans; data writes do not, because a cached plan binds its tables
//! through the snapshot of the statement that runs it. A standalone engine
//! ([`Engine::over`]) gets a private context and takes the same path.
//!
//! `Engine::plan_with` is the one place a statement is planned. Running
//! it, preparing it, and every form of `EXPLAIN` take the [`Planned`] value
//! it returns, so `EXPLAIN` renders the tree the statement's runs drive.

use crate::error::{EngineError, Result};
use crate::exec::{ExecConfig, Executor};
use crate::metrics::{OpKind, QueryMetrics, ServingCounters, ServingInfo};
use crate::naive::{order_and_limit, NaiveEvaluator};
use crate::plan_cache::{PlanCache, Planned};
use crate::stats_histogram::StatsRegistry;
use crate::unnest::build_plan;
use crate::verify::VerifiedPlan;
use fuzzy_core::Degree;
use fuzzy_rel::{Catalog, Relation};
use fuzzy_sql::ExplainMode;
use fuzzy_storage::{thread_io, CostModel, Measurement, SimDisk};
use std::sync::Arc;
use std::time::Instant;

/// How a query is evaluated.
///
/// The three physical strategies share one pipeline: the statement is
/// unnested into a plan, and the operator tree the strategy lowers it to is
/// verified once, cached, and driven. Only the tree differs. The two
/// baselines refuse shapes outside the unnesting catalogue (`Unsupported`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Unnest to a flat plan and evaluate with the extended merge-join
    /// machinery (the paper's proposal): filter scans, ⪯-sorts, merge
    /// windows, and a pushed-down threshold. Falls back to
    /// [`Strategy::Naive`] for shapes outside the catalogue.
    #[default]
    Unnest,
    /// The block nested-loop method (the paper's measured baseline of
    /// Section 9): pass-through scans, no sorts and no push-down; every join,
    /// anti, and aggregate step is a block nested loop that evaluates p₁ per
    /// outer tuple and p₂ per pair.
    NestedLoop,
    /// The intermediate-relation method sketched in Section 2.3: filter scans
    /// materialize the local predicates into reduced temporaries once, then
    /// the block nested loops run over them — faster than
    /// [`Strategy::NestedLoop`], still quadratic, slower than
    /// [`Strategy::Unnest`].
    MaterializedNestedLoop,
    /// The semantics-faithful in-memory reference evaluator (the oracle; it
    /// has no operator tree).
    Naive,
}

impl Strategy {
    /// The strategy's name, the prefix of an outcome's `plan_label`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Strategy::Unnest => "unnest",
            Strategy::NestedLoop => "nested-loop",
            Strategy::MaterializedNestedLoop => "materialized-nl",
            Strategy::Naive => "naive",
        }
    }

    /// Whether the strategy is one of the paper's nested-loop baselines.
    pub(crate) fn is_baseline(self) -> bool {
        matches!(self, Strategy::NestedLoop | Strategy::MaterializedNestedLoop)
    }
}

/// The result of running one query: the answer relation plus cost accounting.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The answer, a fuzzy relation.
    pub answer: Relation,
    /// I/O counters and CPU time of the execution.
    pub measurement: Measurement,
    /// The per-operator metrics registry of the run (tuples in/out, fuzzy
    /// comparisons, page I/O counters, wall time per operator).
    pub metrics: QueryMetrics,
    /// Plan-cache and concurrency annotations (see [`ServingInfo`]).
    pub serving: ServingInfo,
    /// A short description of how the query was evaluated.
    pub plan_label: String,
}

impl QueryOutcome {
    /// Modeled response time under a cost model.
    pub fn response_time(&self, model: &CostModel) -> std::time::Duration {
        self.measurement.response_time(model)
    }
}

/// The state every engine over one database shares: the disk its tables and
/// temporaries live on, the lazily built column statistics the join-order
/// optimizer reads, the cache of verified operator trees, and the serving
/// counters. A serving database owns one; [`Engine::over`] builds a private
/// one, so every engine plans, verifies, caches and runs the same way.
#[derive(Debug)]
pub struct EngineContext {
    /// The simulated disk (temporaries are created here so their I/O is
    /// charged).
    pub disk: SimDisk,
    /// Column histograms, built on first use and reused across statements.
    pub statistics: StatsRegistry,
    /// Verified operator trees by normalized SQL, strategy and schema
    /// version.
    pub plan_cache: PlanCache,
    /// Statements in flight, peak, totals and lock wait.
    pub serving: ServingCounters,
}

impl EngineContext {
    /// A fresh context over `disk`: empty statistics and plan cache, zeroed
    /// counters.
    pub fn new(disk: &SimDisk) -> EngineContext {
        EngineContext {
            disk: disk.clone(),
            statistics: StatsRegistry::default(),
            plan_cache: PlanCache::default(),
            serving: ServingCounters::default(),
        }
    }
}

/// The query engine over one catalog snapshot and one [`EngineContext`].
/// Owned and `Send + Sync`: cloning the [`Arc`]s in is cheap, and nothing
/// borrows the database while a query runs.
pub struct Engine {
    catalog: Arc<Catalog>,
    ctx: Arc<EngineContext>,
    config: ExecConfig,
    lock_wait: std::time::Duration,
}

impl Engine {
    /// Creates a standalone engine over an owned catalog snapshot, with a
    /// private [`EngineContext`]. The disk must be the one the catalog's
    /// tables live on (temporaries are created there so their I/O is
    /// charged).
    pub fn over(catalog: Arc<Catalog>, disk: &SimDisk) -> Engine {
        Engine::in_context(
            Arc::new(EngineContext::new(disk)),
            catalog,
            ExecConfig::default(),
            std::time::Duration::ZERO,
        )
    }

    /// Creates an engine over a catalog snapshot in a shared context (the
    /// serving layer's constructor). `lock_wait` is the catalog-lock wait
    /// the session measured while taking the snapshot; it is charged to the
    /// statement's serving report.
    pub fn in_context(
        ctx: Arc<EngineContext>,
        catalog: Arc<Catalog>,
        config: ExecConfig,
        lock_wait: std::time::Duration,
    ) -> Engine {
        Engine { catalog, ctx, config, lock_wait }
    }

    /// Overrides the execution configuration (buffer and sort budgets).
    pub fn with_config(mut self, config: ExecConfig) -> Engine {
        self.config = config;
        self
    }

    /// Parses and runs a Fuzzy SQL query with the given strategy.
    pub fn run_sql(&self, sql: &str, strategy: Strategy) -> Result<QueryOutcome> {
        let q = fuzzy_sql::parse(sql)?;
        self.run(&q, strategy)
    }

    /// Runs a parsed query with the given strategy.
    pub fn run(&self, q: &fuzzy_sql::Query, strategy: Strategy) -> Result<QueryOutcome> {
        self.reclaiming_temps(|| self.run_query(q, strategy))
    }

    /// Plans `q` for [`Strategy::Unnest`]: consults the plan cache, and
    /// otherwise builds the plan, lowers it to its operator tree, verifies
    /// that tree, and records it in the cache. This is the engine's single
    /// verification site — every plan it builds, for every physical
    /// strategy, is statically verified, in every build profile, before
    /// anything runs it; cache hits and prepared replays run the cached tree
    /// with zero re-verification and no re-lowering. Returns the planned
    /// form plus the cache annotation for the outcome's [`ServingInfo`].
    pub fn plan_for(&self, q: &fuzzy_sql::Query) -> Result<(Planned, ServingInfo)> {
        self.plan_with(q, Strategy::Unnest)
    }

    /// [`Engine::plan_for`] under a physical strategy: the cached form is
    /// the [`VerifiedPlan`] of that strategy's operator tree (and the
    /// strategy is part of the cache key), so the tree that runs is the
    /// tree that was verified. A shape outside the unnesting catalogue plans
    /// as the naive fallback under [`Strategy::Unnest`] and is `Unsupported`
    /// under the baselines. [`Strategy::Naive`] has no plan; its statements
    /// never come here. Entries are keyed on the catalog's schema version:
    /// data writes keep them live, DDL, DEFINE TERM and ANALYZE retire them.
    fn plan_with(
        &self,
        q: &fuzzy_sql::Query,
        strategy: Strategy,
    ) -> Result<(Planned, ServingInfo)> {
        let cache = &self.ctx.plan_cache;
        let key = PlanCache::key(q, strategy, &self.config);
        let schema_version = self.catalog.schema_version();
        let mut info = ServingInfo::default();
        let planned = match cache.lookup(&key, schema_version) {
            Some(planned) => {
                info.cache_hit = Some(true);
                planned
            }
            None => {
                let planned = match build_plan(q, &self.catalog) {
                    Ok(plan) => {
                        info.plan_verifications = 1;
                        let stats = Some(&self.ctx.statistics);
                        let verified =
                            VerifiedPlan::new(&plan, strategy, &self.config, &self.catalog, stats)?;
                        Planned::Plan(Arc::new(verified))
                    }
                    Err(EngineError::Unsupported(reason)) if strategy == Strategy::Unnest => {
                        Planned::NaiveFallback(reason.into())
                    }
                    Err(e) => return Err(e),
                };
                cache.insert(key, schema_version, planned.clone());
                info.cache_hit = Some(false);
                planned
            }
        };
        info.cache = cache.stats();
        Ok((planned, info))
    }

    /// Runs an already-planned statement (the `PreparedQuery` path): the
    /// pinned plan executes under the strategy it was verified for, with no
    /// re-planning and no re-verification.
    pub fn run_planned(
        &self,
        q: &fuzzy_sql::Query,
        planned: &Planned,
        info: ServingInfo,
    ) -> Result<QueryOutcome> {
        self.reclaiming_temps(|| self.execute(q, planned, info))
    }

    /// Runs one statement inside the disk's alloc-log scope.
    ///
    /// Every page allocated while the statement runs is a temporary — sort
    /// runs, partition scratch, materialized intermediates; base tables are
    /// loaded outside statement execution — so all of them are returned to
    /// the disk's free list at statement end (on the error path too).
    /// Repeated statements therefore cannot grow the simulated disk. When
    /// statements from concurrent sessions overlap, the disk's scoped log
    /// defers reclamation to the last statement to finish, so one session
    /// never frees a temporary another is still reading.
    fn reclaiming_temps(
        &self,
        body: impl FnOnce() -> Result<QueryOutcome>,
    ) -> Result<QueryOutcome> {
        let disk = &self.ctx.disk;
        disk.begin_alloc_log();
        let result = body();
        for page in disk.take_alloc_log() {
            disk.free_page(page);
        }
        result
    }

    fn run_query(&self, q: &fuzzy_sql::Query, strategy: Strategy) -> Result<QueryOutcome> {
        match strategy {
            // The oracle: the only literal evaluator outside tests.
            Strategy::Naive => self.measured(q, ServingInfo::default(), || {
                let (answer, metrics) = self.run_naive_metered(q, |c| NaiveEvaluator::new(c))?;
                Ok((answer, metrics, Strategy::Naive.name().to_string()))
            }),
            _ => {
                let (planned, info) = self.plan_with(q, strategy)?;
                self.execute(q, &planned, info)
            }
        }
    }

    /// Executes a planned statement: drives the verified operator tree, or
    /// runs the naive fallback.
    fn execute(
        &self,
        q: &fuzzy_sql::Query,
        planned: &Planned,
        info: ServingInfo,
    ) -> Result<QueryOutcome> {
        self.measured(q, info, || match planned {
            Planned::Plan(plan) => {
                let (answer, metrics) =
                    Executor::new(&self.ctx.disk, self.config).run(plan, &self.catalog)?;
                Ok((answer, metrics, plan.label().to_string()))
            }
            Planned::NaiveFallback(_) => {
                let (answer, metrics) =
                    self.run_naive_metered(q, |c| NaiveEvaluator::serving(c))?;
                Ok((answer, metrics, "naive-fallback".to_string()))
            }
        })
    }

    /// Measures `evaluate` (wall time, and the page I/O of this thread and
    /// the helpers it credits, so concurrent sessions never count in),
    /// applies the presentation steps (session default threshold, ORDER BY,
    /// LIMIT) to the answer it returns, and assembles the outcome.
    fn measured(
        &self,
        q: &fuzzy_sql::Query,
        mut serving: ServingInfo,
        evaluate: impl FnOnce() -> Result<(Relation, QueryMetrics, String)>,
    ) -> Result<QueryOutcome> {
        let io_before = thread_io();
        let start = Instant::now();
        let (mut answer, metrics, plan_label) = evaluate()?;
        // The session-level `WITH D > z` default applies only when the
        // statement carries no explicit threshold, and before presentation
        // (ORDER BY / LIMIT see the thresholded answer). It is a pure filter
        // — degrees are unchanged — so every strategy agrees.
        if q.with_threshold.is_none() {
            if let Some(z) = self.config.default_threshold {
                answer = answer.with_threshold(Degree::clamped(z), true);
            }
        }
        let answer = order_and_limit(q, answer)?;
        let cpu = start.elapsed();
        let io = thread_io().since(&io_before);
        serving.lock_wait = self.lock_wait;
        serving.sessions_in_flight = self.ctx.serving.in_flight();
        Ok(QueryOutcome {
            answer,
            measurement: Measurement { io, cpu },
            metrics,
            serving,
            plan_label,
        })
    }

    /// Renders an `EXPLAIN` statement of `q` under a strategy: plain
    /// `EXPLAIN` and `EXPLAIN VERIFY` render the statement's cached plan,
    /// `EXPLAIN ANALYZE` renders it and then runs it (the run's outcome is
    /// returned too). The plan comes from one plan-cache lookup, like a run's:
    /// a miss plans, verifies and inserts, a hit re-lowers nothing.
    /// [`Strategy::Naive`] has no plan; its statements render only the
    /// strategy name before their run.
    pub fn explain(
        &self,
        q: &fuzzy_sql::Query,
        strategy: Strategy,
        mode: ExplainMode,
    ) -> Result<(String, Option<QueryOutcome>)> {
        if strategy == Strategy::Naive {
            return self.explained(q, None, mode, || self.run(q, strategy));
        }
        let (planned, info) = self.plan_with(q, strategy)?;
        self.explain_planned(q, &planned, info, mode)
    }

    /// [`Engine::explain`] of an already-planned statement (the
    /// `PreparedQuery` path): renders the pinned plan and, under
    /// `EXPLAIN ANALYZE`, runs it as [`Engine::run_planned`] does.
    pub fn explain_planned(
        &self,
        q: &fuzzy_sql::Query,
        planned: &Planned,
        info: ServingInfo,
        mode: ExplainMode,
    ) -> Result<(String, Option<QueryOutcome>)> {
        self.explained(q, Some(planned), mode, || self.run_planned(q, planned, info))
    }

    /// Renders `planned` (`None` under [`Strategy::Naive`]) and, under
    /// `EXPLAIN ANALYZE`, appends the measured half from `run`.
    fn explained(
        &self,
        q: &fuzzy_sql::Query,
        planned: Option<&Planned>,
        mode: ExplainMode,
        run: impl FnOnce() -> Result<QueryOutcome>,
    ) -> Result<(String, Option<QueryOutcome>)> {
        let mut text = crate::explain::render(q, planned, mode, &self.catalog, &self.config);
        if mode != ExplainMode::Analyze {
            return Ok((text, None));
        }
        let outcome = run()?;
        text.push_str(&crate::explain::render_actual(&outcome));
        Ok((text, Some(outcome)))
    }

    /// Runs a naive evaluator — the oracle or the serving mode, as
    /// `evaluator` constructs it — under a single `naive-eval` operator node
    /// so naive runs still carry comparable metrics.
    fn run_naive_metered(
        &self,
        q: &fuzzy_sql::Query,
        evaluator: impl for<'e> FnOnce(&'e Catalog) -> NaiveEvaluator<'e>,
    ) -> Result<(Relation, QueryMetrics)> {
        let mut metrics = QueryMetrics::default();
        let id = metrics.begin(OpKind::Naive, "naive-eval");
        let io0 = thread_io();
        let t0 = Instant::now();
        let ev = evaluator(&self.catalog);
        let answer = ev.eval(q)?;
        let m = metrics.op_mut(id);
        m.fuzzy_comparisons = ev.comparisons();
        m.tuples_out = answer.len() as u64;
        metrics.finish(id, t0.elapsed(), thread_io().since(&io0));
        Ok((answer, metrics))
    }
}
