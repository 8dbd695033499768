//! The query engine: strategy dispatch, plan caching, and measurement.
//!
//! [`Engine`] is an **owned handle**: it holds an [`Arc`] snapshot of the
//! catalog plus a cloneable disk handle, so it is `Send + Sync` and can be
//! constructed per statement without borrowing the database for its
//! lifetime. A serving layer (see the `fuzzy-db` facade) hands every session
//! an engine over the current catalog snapshot; DDL/DML swaps in a new
//! snapshot and bumps the catalog version, which invalidates cached plans.

use crate::error::{EngineError, Result};
use crate::exec::{ExecConfig, Executor};
use crate::metrics::{OpKind, QueryMetrics, ServingCounters, ServingInfo};
use crate::naive::{order_and_limit, NaiveEvaluator};
use crate::plan_cache::{PlanCache, Planned};
use crate::unnest::build_plan;
use fuzzy_core::Degree;
use fuzzy_rel::{Catalog, Relation};
use fuzzy_storage::{BufferPool, CostModel, IoSnapshot, Measurement, SimDisk};
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
    /// comparisons, buffer and I/O counters, wall time per operator).
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

/// The query engine over one catalog snapshot and one simulated disk. Owned
/// and `Send + Sync`: cloning the [`Arc`]ed catalog in is cheap, and nothing
/// borrows the database while a query runs.
pub struct Engine {
    catalog: Arc<Catalog>,
    disk: SimDisk,
    config: ExecConfig,
    statistics: Option<Arc<crate::stats_histogram::StatsRegistry>>,
    plan_cache: Option<Arc<PlanCache>>,
    serving: Option<Arc<ServingCounters>>,
    lock_wait: std::time::Duration,
}

impl Engine {
    /// Creates an engine over an owned catalog snapshot. The disk must be
    /// the one the catalog's tables live on (temporaries are created there
    /// so their I/O is charged).
    pub fn over(catalog: Arc<Catalog>, disk: &SimDisk) -> Engine {
        Engine {
            catalog,
            disk: disk.clone(),
            config: ExecConfig::default(),
            statistics: None,
            plan_cache: None,
            serving: None,
            lock_wait: std::time::Duration::ZERO,
        }
    }

    /// Attaches a shared statistics registry; histograms are built lazily
    /// (one scan per column on first use) and reused across queries.
    pub fn with_statistics(mut self, stats: Arc<crate::stats_histogram::StatsRegistry>) -> Engine {
        self.statistics = Some(stats);
        self
    }

    /// Attaches a shared plan cache: statements look up their verified plan
    /// by normalized SQL + strategy + catalog version before planning from
    /// scratch, and record what they built on a miss.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Engine {
        self.plan_cache = Some(cache);
        self
    }

    /// Attaches the database-wide serving counters so outcomes can snapshot
    /// the in-flight statement count.
    pub fn with_serving_counters(mut self, counters: Arc<ServingCounters>) -> Engine {
        self.serving = Some(counters);
        self
    }

    /// Charges catalog-lock wait time (measured by the session layer while
    /// acquiring its catalog snapshot) to this statement's serving report.
    pub fn with_lock_wait(mut self, wait: std::time::Duration) -> Engine {
        self.lock_wait = wait;
        self
    }

    /// Overrides the execution configuration (buffer and sort budgets).
    pub fn with_config(mut self, config: ExecConfig) -> Engine {
        self.config = config;
        self
    }

    /// Sets the worker-thread count for external sorts and flat merge-joins
    /// (see [`ExecConfig::threads`]). Any value returns bit-identical answers
    /// and identical cost counters; `1` is the serial path.
    pub fn with_threads(mut self, threads: usize) -> Engine {
        self.config.threads = threads.max(1);
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// The catalog snapshot this engine plans against.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
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

    /// Plans `q` for [`Strategy::Unnest`]: consults the plan cache (when
    /// attached), and otherwise builds the plan, verifies it, and records it
    /// in the cache. This is the engine's single verification site — every
    /// plan it builds, for every physical strategy, is statically verified,
    /// in every build profile, before anything runs it; cache hits and
    /// prepared replays run the plan with zero re-verification. Returns the
    /// planned form plus the cache annotation for the outcome's
    /// [`ServingInfo`] (`cache_hit` stays `None` without a cache).
    pub fn plan_for(&self, q: &fuzzy_sql::Query) -> Result<(Planned, ServingInfo)> {
        self.plan_with(q, Strategy::Unnest)
    }

    /// [`Engine::plan_for`] under a physical strategy: verifies the operator
    /// tree that strategy lowers the plan to, and records the strategy in
    /// the planned form (and the cache key), so the tree that runs is the
    /// tree that was verified. A shape outside the unnesting catalogue plans
    /// as the naive fallback under [`Strategy::Unnest`] and is `Unsupported`
    /// under the baselines. [`Strategy::Naive`] has no plan; its statements
    /// never come here.
    fn plan_with(
        &self,
        q: &fuzzy_sql::Query,
        strategy: Strategy,
    ) -> Result<(Planned, ServingInfo)> {
        let mut info = ServingInfo::default();
        let cached = self
            .plan_cache
            .as_ref()
            .map(|c| (c, PlanCache::key(q, strategy, &self.config), self.catalog.version()));
        if let Some((cache, key, version)) = &cached {
            if let Some(planned) = cache.lookup(key, *version) {
                info.cache_hit = Some(true);
                info.cache = cache.stats();
                return Ok((planned, info));
            }
        }
        let planned = match build_plan(q, &self.catalog) {
            Ok(plan) => {
                info.plan_verifications = 1;
                let report = crate::verify::verify_plan(
                    &plan,
                    strategy,
                    &self.config,
                    self.statistics.as_deref(),
                );
                if let Some(v) = report.violations.first() {
                    return Err(EngineError::Verify(format!(
                        "{v} ({} violation(s) in plan {})",
                        report.violations.len(),
                        report.plan_label
                    )));
                }
                Planned::Plan(Arc::new(plan), strategy)
            }
            Err(EngineError::Unsupported(_)) if strategy == Strategy::Unnest => {
                Planned::NaiveFallback
            }
            Err(e) => return Err(e),
        };
        if let Some((cache, key, version)) = cached {
            cache.insert(key, version, planned.clone());
            info.cache_hit = Some(false);
            info.cache = cache.stats();
        }
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
        self.disk.begin_alloc_log();
        let result = body();
        for page in self.disk.take_alloc_log() {
            self.disk.free_page(page);
        }
        result
    }

    fn run_query(&self, q: &fuzzy_sql::Query, strategy: Strategy) -> Result<QueryOutcome> {
        match strategy {
            // The oracle: the only literal evaluator outside tests.
            Strategy::Naive => self.measured(q, ServingInfo::default(), || {
                let (answer, metrics) =
                    self.run_naive_metered(q, |c, p| NaiveEvaluator::new(c, p))?;
                Ok((answer, metrics, Strategy::Naive.name().to_string()))
            }),
            _ => {
                let (planned, info) = self.plan_with(q, strategy)?;
                self.execute(q, &planned, info)
            }
        }
    }

    /// Executes a planned statement: drives the verified plan's operator
    /// tree under its strategy, or runs the naive fallback.
    fn execute(
        &self,
        q: &fuzzy_sql::Query,
        planned: &Planned,
        info: ServingInfo,
    ) -> Result<QueryOutcome> {
        self.measured(q, info, || match planned {
            Planned::Plan(plan, strategy) => {
                let mut ex = Executor::new(&self.disk, self.config);
                if let Some(stats) = &self.statistics {
                    ex = ex.with_statistics(stats.clone());
                }
                let answer = ex.run(plan, *strategy)?;
                Ok((answer, ex.take_metrics(), format!("{}:{}", strategy.name(), plan.label())))
            }
            Planned::NaiveFallback => {
                let (answer, metrics) =
                    self.run_naive_metered(q, |c, p| NaiveEvaluator::serving(c, p))?;
                Ok((answer, metrics, "naive-fallback".to_string()))
            }
        })
    }

    /// Measures `evaluate` (wall time and disk I/O), applies the
    /// presentation steps (session default threshold, ORDER BY, LIMIT) to
    /// the answer it returns, and assembles the outcome.
    fn measured(
        &self,
        q: &fuzzy_sql::Query,
        mut serving: ServingInfo,
        evaluate: impl FnOnce() -> Result<(Relation, QueryMetrics, String)>,
    ) -> Result<QueryOutcome> {
        let io_before = self.disk.io();
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
        let io = self.disk.io().since(&io_before);
        serving.lock_wait = self.lock_wait;
        if let Some(counters) = &self.serving {
            serving.sessions_in_flight = counters.in_flight();
        }
        Ok(QueryOutcome {
            answer,
            measurement: Measurement { io, cpu },
            metrics,
            serving,
            plan_label,
        })
    }

    /// Explains how a query would be evaluated under [`Strategy::Unnest`]:
    /// its classified type, the chosen strategy, the unnested plan (or the
    /// naive fallback), and deterministic cost estimates.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let q = fuzzy_sql::parse(sql)?;
        self.explain_query(&q, Strategy::Unnest)
    }

    /// [`Engine::explain`] over an already-parsed query, under a strategy.
    pub fn explain_query(&self, q: &fuzzy_sql::Query, strategy: Strategy) -> Result<String> {
        crate::explain::render_explain(
            q,
            strategy,
            &self.catalog,
            &self.config,
            self.statistics.as_deref(),
        )
    }

    /// Runs the query under [`Strategy::Unnest`] and renders the plan
    /// annotated with the *actual* per-operator counters and wall times.
    /// Returns the rendering together with the outcome.
    pub fn explain_analyze(&self, sql: &str) -> Result<(String, QueryOutcome)> {
        let q = fuzzy_sql::parse(sql)?;
        self.explain_analyze_query(&q, Strategy::Unnest)
    }

    /// [`Engine::explain_analyze`] over an already-parsed query, under a
    /// strategy.
    pub fn explain_analyze_query(
        &self,
        q: &fuzzy_sql::Query,
        strategy: Strategy,
    ) -> Result<(String, QueryOutcome)> {
        let mut out = self.explain_query(q, strategy)?;
        let outcome = self.run(q, strategy)?;
        out.push_str(&crate::explain::render_actual(&outcome));
        Ok((out, outcome))
    }

    /// Renders the `EXPLAIN VERIFY` text for a query under
    /// [`Strategy::Unnest`]: the static plan verifier's report (rewrite
    /// rule, push-down bound, per-operator required/delivered properties,
    /// violations). See [`crate::verify`].
    pub fn explain_verify(&self, sql: &str) -> Result<String> {
        let q = fuzzy_sql::parse(sql)?;
        self.explain_verify_query(&q, Strategy::Unnest)
    }

    /// [`Engine::explain_verify`] over an already-parsed query, under a
    /// strategy.
    pub fn explain_verify_query(&self, q: &fuzzy_sql::Query, strategy: Strategy) -> Result<String> {
        crate::explain::render_verify(
            q,
            strategy,
            &self.catalog,
            &self.config,
            self.statistics.as_deref(),
        )
    }

    /// Statically verifies the plan the engine would run for this query
    /// under [`Strategy::Unnest`]. Returns `Ok(None)` when the query falls
    /// back to the naive evaluator (nothing to verify — the reference
    /// evaluator is the semantics).
    pub fn verify(&self, sql: &str) -> Result<Option<crate::verify::VerifyReport>> {
        let q = fuzzy_sql::parse(sql)?;
        self.verify_query(&q)
    }

    /// [`Engine::verify`] over an already-parsed query.
    pub fn verify_query(
        &self,
        q: &fuzzy_sql::Query,
    ) -> Result<Option<crate::verify::VerifyReport>> {
        match build_plan(q, &self.catalog) {
            Ok(plan) => Ok(Some(crate::verify::verify_plan(
                &plan,
                Strategy::Unnest,
                &self.config,
                self.statistics.as_deref(),
            ))),
            Err(EngineError::Unsupported(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Runs a naive evaluator — the oracle or the serving mode, as
    /// `evaluator` constructs it — under a single `naive-eval` operator node
    /// so naive runs still carry comparable metrics.
    fn run_naive_metered(
        &self,
        q: &fuzzy_sql::Query,
        evaluator: impl for<'e> FnOnce(&'e Catalog, &'e BufferPool) -> NaiveEvaluator<'e>,
    ) -> Result<(Relation, QueryMetrics)> {
        let mut metrics = QueryMetrics::default();
        let id = metrics.begin(OpKind::Naive, "naive-eval");
        let io0 = self.disk.io();
        let t0 = Instant::now();
        let pool = BufferPool::new(&self.disk, self.config.buffer_pages);
        let ev = evaluator(&self.catalog, &pool);
        let answer = ev.eval(q)?;
        let m = metrics.op_mut(id);
        m.fuzzy_comparisons = ev.comparisons();
        m.tuples_out = answer.len() as u64;
        m.add_pool(&pool.stats());
        metrics.finish(id, t0.elapsed(), self.disk.io().since(&io0));
        Ok((answer, metrics))
    }

    /// Raw I/O counters of the underlying disk (for experiment harnesses).
    pub fn disk_io(&self) -> IoSnapshot {
        self.disk.io()
    }
}
