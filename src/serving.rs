//! Concurrent query serving: shared database state, sessions, prepared
//! queries, and the statement surface.
//!
//! One [`crate::Database`] owns a single [`Shared`] state — the simulated
//! disk, the catalog behind a readers-writer lock, the lazily-built column
//! statistics, the verified-plan cache, and the serving counters. Every
//! [`Session`] is a cheap `Clone` of an `Arc` over that state plus its own
//! per-session [`ExecConfig`], so sessions are `Send + Sync` and can run
//! read statements concurrently from many threads.
//!
//! Lock discipline (DESIGN.md §12): read statements take the catalog lock
//! **shared**, clone the `Arc<Catalog>` snapshot, and keep the shared guard
//! for the duration of the statement, so writers cannot interleave with a
//! running read. DDL/DML takes the lock **exclusively** and mutates a
//! copy-on-write clone (`Arc::make_mut`); every mutation bumps the catalog
//! version, which is what invalidates cached plans. Wall time spent waiting
//! for the lock is charged to the statement's serving report.

use crate::StatementResult;
use fuzzy_core::{Degree, Trapezoid};
use fuzzy_engine::exec::ExecConfig;
use fuzzy_engine::plan_cache::{CacheStats, PlanCache, Planned};
use fuzzy_engine::{Engine, EngineError, QueryOutcome, ServingCounters, StatsRegistry, Strategy};
use fuzzy_rel::{Catalog, Relation, Schema, StoredTable, Tuple};
use fuzzy_storage::SimDisk;
use std::sync::{Arc, RwLock, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// The state one database's sessions share.
pub(crate) struct Shared {
    pub(crate) disk: SimDisk,
    /// The catalog, copy-on-write: readers clone the `Arc` snapshot under a
    /// shared guard; writers swap in a mutated clone under the exclusive
    /// guard.
    pub(crate) catalog: RwLock<Arc<Catalog>>,
    pub(crate) statistics: Arc<StatsRegistry>,
    pub(crate) plan_cache: Arc<PlanCache>,
    pub(crate) serving: Arc<ServingCounters>,
    pub(crate) persist_path: Option<std::path::PathBuf>,
}

impl Shared {
    pub(crate) fn new(catalog: Catalog, disk: SimDisk) -> Shared {
        Shared {
            disk,
            catalog: RwLock::new(Arc::new(catalog)),
            statistics: Arc::new(StatsRegistry::new(16)),
            plan_cache: Arc::new(PlanCache::default()),
            serving: Arc::new(ServingCounters::default()),
            persist_path: None,
        }
    }

    /// The current catalog snapshot (does not block writers afterwards).
    pub(crate) fn catalog_snapshot(&self) -> Arc<Catalog> {
        self.catalog.read().expect("catalog lock").clone()
    }
}

/// Counts a statement in flight for as long as it is alive (RAII so error
/// paths decrement too).
struct InFlight<'a>(&'a ServingCounters);

impl<'a> InFlight<'a> {
    fn enter(counters: &'a ServingCounters) -> InFlight<'a> {
        counters.enter();
        InFlight(counters)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.exit();
    }
}

/// Exclusive catalog access for DDL: derefs to [`Catalog`] through a
/// copy-on-write clone, so snapshots held by in-flight readers and prepared
/// statements are untouched. Mutations bump the catalog version (see
/// [`Catalog::version`]), invalidating cached plans.
pub struct CatalogWrite<'a> {
    guard: RwLockWriteGuard<'a, Arc<Catalog>>,
}

impl std::ops::Deref for CatalogWrite<'_> {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        &self.guard
    }
}

impl std::ops::DerefMut for CatalogWrite<'_> {
    fn deref_mut(&mut self) -> &mut Catalog {
        Arc::make_mut(&mut self.guard)
    }
}

/// One client's handle on a shared database: an `Arc` of the shared state
/// plus this session's own execution configuration. Cloning a session (or
/// calling `Database::session()`) is cheap; handles are `Send + Sync` and
/// read statements from different sessions run concurrently.
#[derive(Clone)]
pub struct Session {
    pub(crate) shared: Arc<Shared>,
    pub(crate) config: ExecConfig,
}

impl Session {
    /// A new session over the same database with the same configuration.
    pub fn session(&self) -> Session {
        self.clone()
    }

    /// The session's execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.config
    }

    /// Replaces the session's execution configuration (affects only this
    /// session; other handles keep theirs).
    pub fn set_exec_config(&mut self, config: ExecConfig) {
        self.config = config;
    }

    /// Sets this session's worker-thread count for sorts and merge-joins.
    /// Any value returns bit-identical answers; `1` is the serial path.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
    }

    /// Sets this session's default answer threshold: statements without an
    /// explicit `WITH D > z` clause are filtered to degrees `> z`. `None`
    /// restores the paper's `D > 0` default.
    pub fn set_default_threshold(&mut self, z: Option<f64>) {
        self.config.default_threshold = z;
    }

    /// An owned engine over the current catalog snapshot, wired to the
    /// database's statistics, plan cache, and serving counters. The engine
    /// does not hold the catalog lock: it sees the snapshot taken here.
    pub fn engine(&self) -> Engine {
        let (catalog, wait) = self.read_snapshot();
        self.engine_over(catalog, wait)
    }

    fn engine_over(&self, catalog: Arc<Catalog>, lock_wait: Duration) -> Engine {
        Engine::over(catalog, &self.shared.disk)
            .with_config(self.config)
            .with_statistics(self.shared.statistics.clone())
            .with_plan_cache(self.shared.plan_cache.clone())
            .with_serving_counters(self.shared.serving.clone())
            .with_lock_wait(lock_wait)
    }

    /// Takes a catalog snapshot under the shared lock, returning it together
    /// with the measured lock wait. The guard is released before returning —
    /// use [`Session::read_locked`] when the statement must exclude writers
    /// for its whole duration.
    fn read_snapshot(&self) -> (Arc<Catalog>, Duration) {
        let t0 = Instant::now();
        let guard = self.shared.catalog.read().expect("catalog lock");
        (guard.clone(), t0.elapsed())
    }

    /// Runs `body` over a catalog snapshot while *holding* the shared guard,
    /// so no writer can interleave with the statement. This is the read-side
    /// of the serving lock discipline.
    fn read_locked<T>(
        &self,
        body: impl FnOnce(&Session, Arc<Catalog>, Duration) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let t0 = Instant::now();
        let guard = self.shared.catalog.read().expect("catalog lock");
        let wait = t0.elapsed();
        let _in = InFlight::enter(&self.shared.serving);
        body(self, guard.clone(), wait)
    }

    /// Takes the catalog lock exclusively (the write side of the serving
    /// lock discipline) and runs `body` with copy-on-write catalog access.
    fn write_locked<T>(
        &self,
        body: impl FnOnce(&Session, &mut CatalogWrite<'_>) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let t0 = Instant::now();
        let guard = self.shared.catalog.write().expect("catalog lock");
        self.shared.serving.add_lock_wait(t0.elapsed());
        let _in = InFlight::enter(&self.shared.serving);
        let mut w = CatalogWrite { guard };
        body(self, &mut w)
    }

    /// Starts a query: `session.query(sql).strategy(..).threshold(..)
    /// .collect()`. The single entry point for SELECT statements; see
    /// [`QueryBuilder`].
    pub fn query(&self, sql: impl AsRef<str>) -> QueryBuilder {
        QueryBuilder {
            session: self.clone(),
            sql: sql.as_ref().to_string(),
            strategy: Strategy::Unnest,
        }
    }

    /// Parses and plans `sql` once, pinning the verified plan. Running the
    /// prepared statement skips parsing, classification, planning, and
    /// verification; after any DDL/DML it fails with
    /// [`EngineError::StalePlan`] until re-prepared.
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery, EngineError> {
        let q = fuzzy_sql::parse(sql)?;
        self.read_locked(|s, catalog, wait| {
            let version = catalog.version();
            let engine = s.engine_over(catalog, wait);
            let (planned, _info) = engine.plan_for(&q)?;
            Ok(PreparedQuery { session: s.clone(), query: q.clone(), planned, version })
        })
    }

    /// Explains how a query would be evaluated: its classified nesting type
    /// (Sections 4-8 of the paper), the unnested plan, and deterministic cost
    /// estimates.
    pub fn explain(&self, sql: &str) -> Result<String, EngineError> {
        self.query(sql).explain()
    }

    /// Runs the query and renders the `EXPLAIN` output annotated with the
    /// *actual* per-operator counters and wall times (`EXPLAIN ANALYZE`),
    /// including the plan-cache/serving section.
    pub fn explain_analyze(&self, sql: &str) -> Result<String, EngineError> {
        Ok(self.query(sql).explain_analyze()?.0)
    }

    /// Renders the `EXPLAIN VERIFY` output for a query: the static plan
    /// verifier's report — the rewrite rule applied, the threshold push-down
    /// bound, every physical operator's required and delivered properties,
    /// and any violations (see `fuzzy_engine::verify`).
    pub fn explain_verify(&self, sql: &str) -> Result<String, EngineError> {
        self.query(sql).explain_verify()
    }

    /// Executes one statement: SELECT, EXPLAIN [ANALYZE|VERIFY], CREATE
    /// TABLE, DEFINE TERM, INSERT, ANALYZE, DELETE, or UPDATE (see
    /// `fuzzy_sql::statement` for the grammar). Read statements take the
    /// catalog lock shared; DDL/DML takes it exclusively and bumps the
    /// catalog version (invalidating cached plans).
    ///
    /// DELETE and UPDATE match tuples whose WHERE-condition degree is
    /// positive (or meets the statement's `WITH D` threshold); matching is a
    /// fuzzy condition like any other, so a vague WHERE clause touches
    /// precisely the tuples that *possibly* satisfy it above the bar.
    pub fn execute(&self, sql: &str) -> Result<StatementResult, EngineError> {
        use fuzzy_sql::Statement;
        match fuzzy_sql::parse_statement(sql)? {
            Statement::Select(q) => self.read_locked(|s, catalog, wait| {
                let out = s.engine_over(catalog, wait).run(&q, Strategy::Unnest)?;
                Ok(StatementResult::Rows(out.answer))
            }),
            Statement::Explain { mode, query } => self.read_locked(|s, catalog, wait| {
                let engine = s.engine_over(catalog, wait);
                let text = match mode {
                    fuzzy_sql::ExplainMode::Plan => engine.explain_query(&query)?,
                    fuzzy_sql::ExplainMode::Analyze => engine.explain_analyze_query(&query)?.0,
                    fuzzy_sql::ExplainMode::Verify => engine.explain_verify_query(&query)?,
                };
                Ok(StatementResult::Explained(text))
            }),
            Statement::CreateTable { name, columns } => {
                use fuzzy_rel::AttrType;
                let attrs: Vec<fuzzy_rel::Attribute> = columns
                    .iter()
                    .map(|c| {
                        fuzzy_rel::Attribute::new(
                            c.name.clone(),
                            if c.is_text { AttrType::Text } else { AttrType::Number },
                        )
                    })
                    .collect();
                let mut schema = Schema::new(attrs);
                if let Some(key) = columns.iter().find(|c| c.key) {
                    schema = schema.with_key(&key.name);
                }
                self.create_table(&name, schema)?;
                Ok(StatementResult::Done)
            }
            Statement::DefineTerm { name, shape } => {
                let t = Trapezoid::new(shape.0, shape.1, shape.2, shape.3)
                    .map_err(EngineError::Fuzzy)?;
                self.define_term(&name, t);
                Ok(StatementResult::Done)
            }
            Statement::Insert { table, values, degree } => self.write_locked(|_s, cat| {
                let stored = cat
                    .table(&table)
                    .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?
                    .clone();
                if values.len() != stored.schema().len() {
                    return Err(EngineError::Bind(format!(
                        "{} values for {} columns of {}",
                        values.len(),
                        stored.schema().len(),
                        stored.name()
                    )));
                }
                let vals = values
                    .iter()
                    .enumerate()
                    .map(|(i, o)| insert_value(cat, o, stored.schema().attr(i)))
                    .collect::<Result<Vec<_>, _>>()?;
                let d = Degree::new(degree).map_err(EngineError::Fuzzy)?;
                if d.is_positive() {
                    stored.file().append(&Tuple::new(vals, d).encode(stored.min_record_bytes()))?;
                    cat.bump_version();
                }
                Ok(StatementResult::Affected(usize::from(d.is_positive())))
            }),
            Statement::Analyze { table } => self.read_locked(|s, catalog, _wait| {
                use fuzzy_rel::AttrType;
                let names: Vec<String> = match table {
                    Some(t) => vec![t],
                    None => catalog.table_names().map(|n| n.to_string()).collect(),
                };
                let pool = fuzzy_storage::BufferPool::new(&s.shared.disk, s.config.buffer_pages);
                let mut built = 0usize;
                for name in names {
                    let t = catalog
                        .table(&name)
                        .ok_or_else(|| EngineError::Bind(format!("unknown table {name:?}")))?;
                    for (idx, attr) in t.schema().attributes().iter().enumerate() {
                        if attr.ty == AttrType::Number {
                            s.shared.statistics.histogram_for(t, idx, &pool)?;
                            built += 1;
                        }
                    }
                }
                Ok(StatementResult::Affected(built))
            }),
            Statement::Delete { table, predicates, threshold } => {
                self.rewrite_matching(&table, &predicates, threshold, |_t| None)
            }
            Statement::Update { table, assignments, predicates, threshold } => {
                // Resolve assignment targets and values against a snapshot
                // up front; the rewrite below re-locks exclusively.
                let (resolved, _) = self.read_locked(|_s, catalog, _wait| {
                    let stored = catalog
                        .table(&table)
                        .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?;
                    let mut resolved: Vec<(usize, fuzzy_core::Value)> = Vec::new();
                    for (col, op) in &assignments {
                        let idx = stored.schema().index_of(&col.column).ok_or_else(|| {
                            EngineError::Bind(format!("no attribute {} in {}", col.column, table))
                        })?;
                        resolved
                            .push((idx, insert_value(&catalog, op, stored.schema().attr(idx))?));
                    }
                    Ok((resolved, ()))
                })?;
                self.rewrite_matching(&table, &predicates, threshold, move |t| {
                    let mut updated = t.clone();
                    for (idx, v) in &resolved {
                        updated.values[*idx] = v.clone();
                    }
                    Some(updated)
                })
            }
        }
    }

    /// Defines (or redefines) a linguistic term. Takes the catalog lock
    /// exclusively; bumps the version (cached plans may resolve the term).
    pub fn define_term(&self, name: impl AsRef<str>, shape: Trapezoid) {
        let _ = self.write_locked(|_s, cat| {
            cat.vocabulary_mut().define(name.as_ref(), shape);
            Ok(())
        });
    }

    /// Creates an empty table (exclusive lock; version bump).
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), EngineError> {
        self.write_locked(|s, cat| {
            if cat.table(name).is_some() {
                return Err(EngineError::Bind(format!("table {name:?} already exists")));
            }
            cat.register(StoredTable::create(&s.shared.disk, name, schema));
            Ok(())
        })
    }

    /// Inserts one tuple (exclusive lock; version bump). Tuples with degree
    /// 0 are not members and are silently skipped, matching the membership
    /// criterion of Section 2.
    pub fn insert(&self, table: &str, tuple: Tuple) -> Result<(), EngineError> {
        self.write_locked(|_s, cat| {
            let t = cat
                .table(table)
                .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?;
            if tuple.degree.is_positive() {
                t.file().append(&tuple.encode(t.min_record_bytes()))?;
                cat.bump_version();
            }
            Ok(())
        })
    }

    /// Bulk-loads tuples into a table (exclusive lock; version bump).
    pub fn load<I: IntoIterator<Item = Tuple>>(
        &self,
        table: &str,
        tuples: I,
    ) -> Result<(), EngineError> {
        self.write_locked(|_s, cat| {
            let t = cat
                .table(table)
                .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?;
            t.load(tuples)?;
            cat.bump_version();
            Ok(())
        })
    }

    /// The current catalog snapshot (tables + vocabulary). Reads through it
    /// do not block writers; it reflects the catalog as of this call.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.shared.catalog_snapshot()
    }

    /// Exclusive catalog access (registering externally built tables).
    /// Mutations through the guard copy-on-write the catalog and bump its
    /// version, invalidating cached plans.
    pub fn catalog_mut(&self) -> CatalogWrite<'_> {
        CatalogWrite { guard: self.shared.catalog.write().expect("catalog lock") }
    }

    /// The simulated disk (for I/O accounting in experiments).
    pub fn disk(&self) -> &SimDisk {
        &self.shared.disk
    }

    /// Exact counters of the shared verified-plan cache.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.shared.plan_cache.stats()
    }

    /// The database-wide serving counters (statements in flight, peak,
    /// total statements, accumulated lock wait).
    pub fn serving_counters(&self) -> Arc<ServingCounters> {
        self.shared.serving.clone()
    }

    /// Shared DELETE/UPDATE machinery: rewrites the table under the
    /// exclusive lock, applying `map` to matching tuples (`None` = delete).
    /// Returns the number of matches.
    fn rewrite_matching(
        &self,
        table: &str,
        predicates: &[fuzzy_sql::Predicate],
        threshold: Option<fuzzy_sql::Threshold>,
        map: impl Fn(&Tuple) -> Option<Tuple>,
    ) -> Result<StatementResult, EngineError> {
        self.write_locked(|s, cat| {
            let stored = cat
                .table(table)
                .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?
                .clone();
            let pool = fuzzy_storage::BufferPool::new(&s.shared.disk, s.config.buffer_pages);
            let evaluator = fuzzy_engine::NaiveEvaluator::new(cat, &pool);
            let (z, strict) = match threshold {
                Some(t) => (Degree::clamped(t.z), t.strict),
                None => (Degree::ZERO, true),
            };
            let mut kept: Vec<Tuple> = Vec::new();
            let mut affected = 0usize;
            for t in stored.scan(&pool) {
                let t = t?;
                let d = evaluator.match_degree(stored.name(), stored.schema(), &t, predicates)?;
                if d.meets(z, strict) {
                    affected += 1;
                    if let Some(updated) = map(&t) {
                        kept.push(updated);
                    }
                } else {
                    kept.push(t);
                }
            }
            // Rewrite into a fresh file and swap it into the catalog
            // (register bumps the version).
            let fresh = fuzzy_storage::HeapFile::create(&s.shared.disk);
            {
                let mut w = fresh.bulk_writer();
                for t in &kept {
                    w.append(&t.encode(stored.min_record_bytes()))?;
                }
                w.finish()?;
            }
            cat.register(stored.with_file(stored.name().to_string(), fresh));
            Ok(StatementResult::Affected(affected))
        })
    }
}

/// Resolves an INSERT/UPDATE value operand against the target column.
fn insert_value(
    catalog: &Catalog,
    o: &fuzzy_sql::Operand,
    attr: &fuzzy_rel::Attribute,
) -> Result<fuzzy_core::Value, EngineError> {
    use fuzzy_core::Value;
    use fuzzy_rel::AttrType;
    use fuzzy_sql::Operand;
    Ok(match (o, attr.ty) {
        (Operand::Number(n), AttrType::Number) => Value::number(*n),
        (Operand::FuzzyLiteral(a, b, c, d), AttrType::Number) => {
            Value::fuzzy(Trapezoid::new(*a, *b, *c, *d).map_err(EngineError::Fuzzy)?)
        }
        (Operand::Term(t), AttrType::Text) => Value::text(t.clone()),
        (Operand::Term(t), AttrType::Number) => {
            let shape = catalog.vocabulary().resolve(t).map_err(EngineError::Fuzzy)?;
            Value::fuzzy(shape)
        }
        (other, ty) => {
            return Err(EngineError::Bind(format!(
                "value {other:?} does not fit {ty:?} column {}",
                attr.name
            )))
        }
    })
}

/// A fluent SELECT statement: configure, then [`QueryBuilder::collect`] the
/// answer or [`QueryBuilder::run`] for the full outcome. Holds the catalog
/// lock shared for the duration of the statement when it runs.
#[must_use = "a query builder does nothing until .collect()/.run()"]
pub struct QueryBuilder {
    session: Session,
    sql: String,
    strategy: Strategy,
}

impl QueryBuilder {
    /// Evaluation strategy (default: unnest + extended merge-join).
    pub fn strategy(mut self, strategy: Strategy) -> QueryBuilder {
        self.strategy = strategy;
        self
    }

    /// Answer threshold for this statement when the SQL carries no explicit
    /// `WITH D > z` clause (a pure post-filter; degrees are unchanged).
    pub fn threshold(mut self, z: f64) -> QueryBuilder {
        self.session.config.default_threshold = Some(z);
        self
    }

    /// Worker threads for this statement's sorts and merge-joins.
    pub fn threads(mut self, threads: usize) -> QueryBuilder {
        self.session.config.threads = threads.max(1);
        self
    }

    /// Replaces the whole execution configuration for this statement.
    pub fn config(mut self, config: ExecConfig) -> QueryBuilder {
        self.session.config = config;
        self
    }

    /// Runs the statement and returns the full outcome (answer, I/O
    /// counters, CPU time, per-operator metrics, serving report).
    pub fn run(self) -> Result<QueryOutcome, EngineError> {
        let q = fuzzy_sql::parse(&self.sql)?;
        self.session
            .read_locked(|s, catalog, wait| s.engine_over(catalog, wait).run(&q, self.strategy))
    }

    /// Runs the statement and returns just the answer relation.
    pub fn collect(self) -> Result<Relation, EngineError> {
        Ok(self.run()?.answer)
    }

    /// Renders the deterministic `EXPLAIN` text without running.
    pub fn explain(self) -> Result<String, EngineError> {
        let q = fuzzy_sql::parse(&self.sql)?;
        self.session.read_locked(|s, catalog, wait| s.engine_over(catalog, wait).explain_query(&q))
    }

    /// Runs the statement and renders `EXPLAIN ANALYZE` (the plan annotated
    /// with actual counters, plus the serving section).
    pub fn explain_analyze(self) -> Result<(String, QueryOutcome), EngineError> {
        let q = fuzzy_sql::parse(&self.sql)?;
        self.session
            .read_locked(|s, catalog, wait| s.engine_over(catalog, wait).explain_analyze_query(&q))
    }

    /// Renders the `EXPLAIN VERIFY` text (the static verifier's report).
    pub fn explain_verify(self) -> Result<String, EngineError> {
        let q = fuzzy_sql::parse(&self.sql)?;
        self.session
            .read_locked(|s, catalog, wait| s.engine_over(catalog, wait).explain_verify_query(&q))
    }
}

/// A statement prepared once against a catalog version: parsing,
/// classification, planning, and static verification happened at
/// [`Session::prepare`] time, and every [`PreparedQuery::run`] replays the
/// pinned plan with zero re-planning and zero re-verification. After any
/// DDL/DML bumps the catalog version, running fails with
/// [`EngineError::StalePlan`] until the statement is prepared again.
pub struct PreparedQuery {
    session: Session,
    query: fuzzy_sql::Query,
    planned: Planned,
    version: u64,
}

impl PreparedQuery {
    /// The catalog version the plan is pinned to.
    pub fn planned_version(&self) -> u64 {
        self.version
    }

    /// Runs the pinned plan. Holds the catalog lock shared for the
    /// statement; fails with [`EngineError::StalePlan`] if the catalog has
    /// moved since [`Session::prepare`].
    pub fn run(&self) -> Result<QueryOutcome, EngineError> {
        self.session.read_locked(|s, catalog, wait| {
            self.check_fresh(&catalog)?;
            let info = fuzzy_engine::ServingInfo {
                cache_hit: Some(true),
                plan_verifications: 0,
                cache: s.shared.plan_cache.stats(),
                ..Default::default()
            };
            s.engine_over(catalog, wait).run_planned(&self.query, &self.planned, info)
        })
    }

    /// Runs the pinned plan and returns just the answer relation.
    pub fn collect(&self) -> Result<Relation, EngineError> {
        Ok(self.run()?.answer)
    }

    /// Renders the deterministic `EXPLAIN` text for the prepared statement
    /// (stale-checked like [`PreparedQuery::run`]).
    pub fn explain(&self) -> Result<String, EngineError> {
        self.session.read_locked(|s, catalog, wait| {
            self.check_fresh(&catalog)?;
            s.engine_over(catalog, wait).explain_query(&self.query)
        })
    }

    fn check_fresh(&self, catalog: &Catalog) -> Result<(), EngineError> {
        if catalog.version() != self.version {
            return Err(EngineError::StalePlan {
                planned_version: self.version,
                catalog_version: catalog.version(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<QueryBuilder>();
    }
}
