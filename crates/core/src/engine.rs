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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Unnest to a flat plan and evaluate with the extended merge-join
    /// machinery (the paper's proposal). Falls back to [`Strategy::Naive`]
    /// for shapes outside the catalogue.
    #[default]
    Unnest,
    /// The block nested-loop method (the paper's measured baseline).
    NestedLoop,
    /// The intermediate-relation method sketched in Section 2.3: local
    /// predicates are materialized into reduced temporaries once, then the
    /// nested loop runs over them — faster than [`Strategy::NestedLoop`],
    /// still quadratic, slower than [`Strategy::Unnest`].
    MaterializedNestedLoop,
    /// The semantics-faithful in-memory reference evaluator.
    Naive,
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

    /// Attaches a shared plan cache: `Strategy::Unnest` statements look up
    /// their verified plan by normalized SQL + catalog version before
    /// planning from scratch, and record what they built on a miss.
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
    /// plan it builds is statically verified, in every build profile,
    /// before anything runs it; cache hits and prepared replays run the
    /// plan with zero re-verification. Returns the planned form plus the
    /// cache annotation for the outcome's [`ServingInfo`] (`cache_hit` stays
    /// `None` without a cache).
    pub fn plan_for(&self, q: &fuzzy_sql::Query) -> Result<(Planned, ServingInfo)> {
        let mut info = ServingInfo::default();
        let cached = self
            .plan_cache
            .as_ref()
            .map(|c| (c, PlanCache::key(q, &self.config), self.catalog.version()));
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
                let report =
                    crate::verify::verify_plan(&plan, &self.config, self.statistics.as_deref());
                if let Some(v) = report.violations.first() {
                    return Err(EngineError::Verify(format!(
                        "{v} ({} violation(s) in plan {})",
                        report.violations.len(),
                        report.plan_label
                    )));
                }
                Planned::Plan(Arc::new(plan))
            }
            Err(EngineError::Unsupported(_)) => Planned::NaiveFallback,
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
    /// pinned plan executes with no re-planning and no re-verification.
    pub fn run_planned(
        &self,
        q: &fuzzy_sql::Query,
        planned: &Planned,
        info: ServingInfo,
    ) -> Result<QueryOutcome> {
        self.reclaiming_temps(|| self.run_unnest_planned(q, planned, info))
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
            Strategy::Unnest => {
                let (planned, info) = self.plan_for(q)?;
                self.run_unnest_planned(q, &planned, info)
            }
            Strategy::Naive => self.measured(q, ServingInfo::default(), || {
                let (answer, metrics) = self.run_naive_metered(q)?;
                Ok((answer, metrics, "naive".to_string()))
            }),
            Strategy::NestedLoop => self.measured(q, ServingInfo::default(), || {
                let plan = build_plan(q, &self.catalog)?;
                let mut ex = Executor::new(&self.disk, self.config);
                let answer = ex.run_baseline(&plan)?;
                Ok((answer, ex.take_metrics(), format!("nested-loop:{}", plan.label())))
            }),
            Strategy::MaterializedNestedLoop => self.measured(q, ServingInfo::default(), || {
                let plan = build_plan(q, &self.catalog)?;
                let mut ex = Executor::new(&self.disk, self.config);
                let answer = ex.run_baseline_materialized(&plan)?;
                Ok((answer, ex.take_metrics(), format!("materialized-nl:{}", plan.label())))
            }),
        }
    }

    /// Executes the planned form of an unnest-strategy statement.
    fn run_unnest_planned(
        &self,
        q: &fuzzy_sql::Query,
        planned: &Planned,
        info: ServingInfo,
    ) -> Result<QueryOutcome> {
        self.measured(q, info, || match planned {
            Planned::Plan(plan) => {
                let mut ex = Executor::new(&self.disk, self.config);
                if let Some(stats) = &self.statistics {
                    ex = ex.with_statistics(stats.clone());
                }
                let answer = ex.run(plan)?;
                Ok((answer, ex.take_metrics(), format!("unnest:{}", plan.label())))
            }
            Planned::NaiveFallback => {
                let (answer, metrics) = self.run_naive_metered(q)?;
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
        self.explain_query(&q)
    }

    /// [`Engine::explain`] over an already-parsed query.
    pub fn explain_query(&self, q: &fuzzy_sql::Query) -> Result<String> {
        crate::explain::render_explain(q, &self.catalog, &self.config, self.statistics.as_deref())
    }

    /// Runs the query under [`Strategy::Unnest`] and renders the plan
    /// annotated with the *actual* per-operator counters and wall times.
    /// Returns the rendering together with the outcome.
    pub fn explain_analyze(&self, sql: &str) -> Result<(String, QueryOutcome)> {
        let q = fuzzy_sql::parse(sql)?;
        self.explain_analyze_query(&q)
    }

    /// [`Engine::explain_analyze`] over an already-parsed query.
    pub fn explain_analyze_query(&self, q: &fuzzy_sql::Query) -> Result<(String, QueryOutcome)> {
        let mut out = self.explain_query(q)?;
        let outcome = self.run(q, Strategy::Unnest)?;
        out.push_str(&crate::explain::render_actual(&outcome));
        Ok((out, outcome))
    }

    /// Renders the `EXPLAIN VERIFY` text for a query: the static plan
    /// verifier's report (rewrite rule, push-down bound, per-operator
    /// required/delivered properties, violations). See [`crate::verify`].
    pub fn explain_verify(&self, sql: &str) -> Result<String> {
        let q = fuzzy_sql::parse(sql)?;
        self.explain_verify_query(&q)
    }

    /// [`Engine::explain_verify`] over an already-parsed query.
    pub fn explain_verify_query(&self, q: &fuzzy_sql::Query) -> Result<String> {
        crate::explain::render_verify(q, &self.catalog, &self.config, self.statistics.as_deref())
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
                &self.config,
                self.statistics.as_deref(),
            ))),
            Err(EngineError::Unsupported(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Runs the naive evaluator under a single `naive-eval` operator node so
    /// fallback runs still carry comparable metrics.
    fn run_naive_metered(&self, q: &fuzzy_sql::Query) -> Result<(Relation, QueryMetrics)> {
        let mut metrics = QueryMetrics::default();
        let id = metrics.begin(OpKind::Naive, "naive-eval");
        let io0 = self.disk.io();
        let t0 = Instant::now();
        let pool = BufferPool::new(&self.disk, self.config.buffer_pages);
        let ev = NaiveEvaluator::new(&self.catalog, &pool);
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
