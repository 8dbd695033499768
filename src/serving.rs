//! Concurrent query serving: shared database state, sessions, prepared
//! queries, and the statement surface.
//!
//! One [`crate::Database`] owns a single [`Shared`] state — the catalog
//! behind a readers-writer lock and the [`EngineContext`] every engine of
//! the database runs in (the simulated disk, the lazily-built column
//! statistics, the verified-plan cache, and the serving counters). Every
//! [`Session`] is a cheap `Clone` of an `Arc` over that state plus its own
//! per-session [`ExecConfig`], so sessions are `Send + Sync` and can run
//! read statements concurrently from many threads.
//!
//! Lock discipline (DESIGN.md §12): read statements take the catalog lock
//! **shared**, clone the `Arc<Catalog>` snapshot, and keep the shared guard
//! for the duration of the statement, so writers cannot interleave with a
//! running read. DDL, DML and ANALYZE take the lock **exclusively**; a
//! catalog change mutates a copy-on-write clone (`Arc::make_mut`). Only DDL,
//! DEFINE TERM and ANALYZE bump the catalog's schema version, which is what
//! invalidates cached plans and prepared queries. Data writes leave it
//! alone: a cached plan names its tables and binds them through each
//! statement's snapshot, so it reads the rows written since it was built.
//! Wall time spent waiting for the lock is charged to the statement's
//! serving report.

use crate::StatementResult;
use fuzzy_core::{Degree, Trapezoid};
use fuzzy_engine::exec::ExecConfig;
use fuzzy_engine::plan_cache::{CacheStats, Planned};
use fuzzy_engine::{
    Engine, EngineContext, EngineError, QueryOutcome, ServingCounters, ServingInfo, Strategy,
};
use fuzzy_rel::{Catalog, Relation, Schema, StoredTable, Tuple};
use fuzzy_sql::ExplainMode;
use fuzzy_storage::{HeapFile, SimDisk};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// The state one database's sessions share.
pub(crate) struct Shared {
    /// The disk, statistics, plan cache and serving counters every engine
    /// of this database shares.
    pub(crate) ctx: Arc<EngineContext>,
    /// The catalog, copy-on-write: readers clone the `Arc` snapshot under a
    /// shared guard; writers swap in a mutated clone under the exclusive
    /// guard.
    pub(crate) catalog: RwLock<Arc<Catalog>>,
    pub(crate) persist_path: Option<std::path::PathBuf>,
    /// Base-table files an UPDATE/DELETE replaced whose pages are not yet
    /// free: a catalog snapshot still holds them, or (on a persistent
    /// database) the last saved manifest still lists them.
    retired: Mutex<Vec<HeapFile>>,
}

impl Shared {
    pub(crate) fn new(catalog: Catalog, disk: SimDisk) -> Shared {
        Shared {
            ctx: Arc::new(EngineContext::new(&disk)),
            catalog: RwLock::new(Arc::new(catalog)),
            persist_path: None,
            retired: Mutex::new(Vec::new()),
        }
    }

    /// The retired files. A poisoned guard is taken over: the list stays
    /// valid whatever a panicking holder was doing.
    fn retired(&self) -> MutexGuard<'_, Vec<HeapFile>> {
        self.retired.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes a base-table file the catalog no longer lists. In memory its
    /// pages are freed as soon as no snapshot holds it; on a persistent
    /// database they wait for the next [`Shared::save`], since the saved
    /// manifest still lists them until then.
    fn retire(&self, file: HeapFile) {
        let mut retired = self.retired();
        retired.push(file);
        if self.persist_path.is_none() {
            release_unheld(&mut retired);
        }
    }

    /// Writes the manifest of the current catalog to `path`, then frees the
    /// retired files no snapshot holds: the manifest just written lists none
    /// of them. The shared guard, held throughout, keeps rewrites out, so no
    /// file is retired after the catalog written here.
    pub(crate) fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let catalog = self.catalog.read().expect("catalog lock");
        std::fs::write(path, fuzzy_rel::manifest::encode(&catalog))?;
        release_unheld(&mut self.retired());
        Ok(())
    }

    /// The current catalog snapshot (does not block writers afterwards).
    pub(crate) fn catalog_snapshot(&self) -> Arc<Catalog> {
        self.catalog.read().expect("catalog lock").clone()
    }
}

/// Frees the files of `files` that are no longer shared, keeping the rest.
fn release_unheld(files: &mut Vec<HeapFile>) {
    *files = std::mem::take(files).into_iter().filter_map(|f| f.release().err()).collect();
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
/// copy-on-write clone, so snapshots held by in-flight readers are
/// untouched. Registering a table or defining a term bumps the schema
/// version (see [`Catalog::schema_version`]), invalidating cached plans.
pub(crate) struct CatalogWrite<'a> {
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

    /// Sets this session's worker-thread budget for sorts and merge-joins
    /// (the default is the host's cores, at most two). Any value returns
    /// bit-identical answers and counters; `1` is the serial path.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads.max(1);
    }

    /// Sets this session's default answer threshold: statements without an
    /// explicit `WITH D > z` clause are filtered to degrees `> z`. `None`
    /// restores the paper's `D > 0` default.
    pub fn set_default_threshold(&mut self, z: Option<f64>) {
        self.config.default_threshold = z;
    }

    /// An owned engine over the current catalog snapshot in the database's
    /// shared [`EngineContext`] (statistics, plan cache, serving counters).
    /// The engine does not hold the catalog lock: it sees the snapshot
    /// taken here.
    pub fn engine(&self) -> Engine {
        let (catalog, wait) = self.read_snapshot();
        self.engine_over(catalog, wait)
    }

    fn engine_over(&self, catalog: Arc<Catalog>, lock_wait: Duration) -> Engine {
        Engine::in_context(self.shared.ctx.clone(), catalog, self.config, lock_wait)
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
        let _in = InFlight::enter(&self.shared.ctx.serving);
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
        self.shared.ctx.serving.add_lock_wait(t0.elapsed());
        let _in = InFlight::enter(&self.shared.ctx.serving);
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

    /// Parses and plans `sql` once, pinning the verified plan to the
    /// catalog's schema version. Running the prepared statement skips
    /// parsing, classification, planning, and verification, and reads the
    /// data current at each run, rows written after `prepare` included.
    /// After DDL, DEFINE TERM or ANALYZE it fails with
    /// [`EngineError::StalePlan`] until re-prepared.
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery, EngineError> {
        let q = fuzzy_sql::parse(sql)?;
        self.read_locked(|s, catalog, wait| {
            let schema_version = catalog.schema_version();
            let engine = s.engine_over(catalog, wait);
            let (planned, _info) = engine.plan_for(&q)?;
            Ok(PreparedQuery { session: s.clone(), query: q.clone(), planned, schema_version })
        })
    }

    /// Executes one statement: SELECT, EXPLAIN [ANALYZE|VERIFY], CREATE
    /// TABLE, DEFINE TERM, INSERT, ANALYZE, DELETE, or UPDATE (see
    /// `fuzzy_sql::statement` for the grammar). Read statements take the
    /// catalog lock shared; DDL, DML and ANALYZE take it exclusively. DDL,
    /// DEFINE TERM and ANALYZE bump the schema version (invalidating cached
    /// plans); INSERT, UPDATE and DELETE change only data.
    ///
    /// DELETE and UPDATE match tuples whose WHERE-condition degree is
    /// positive (or meets the statement's `WITH D` threshold); matching is a
    /// fuzzy condition like any other, so a vague WHERE clause touches
    /// precisely the tuples that *possibly* satisfy it above the bar. The
    /// bar applies to the condition degree alone, not to the tuple's
    /// membership: where a SELECT's `WITH D > z` compares `z` with
    /// min(membership, condition), a tuple of membership 0.5 that fully
    /// satisfies the condition is no answer of `SELECT … WITH D > 0.6` but
    /// is matched by `DELETE … WITH D > 0.6`.
    pub fn execute(&self, sql: &str) -> Result<StatementResult, EngineError> {
        use fuzzy_sql::Statement;
        match fuzzy_sql::parse_statement(sql)? {
            Statement::Select(q) => self.read_locked(|s, catalog, wait| {
                let out = s.engine_over(catalog, wait).run(&q, Strategy::Unnest)?;
                Ok(StatementResult::Rows(out.answer))
            }),
            Statement::Explain { mode, query } => self.read_locked(|s, catalog, wait| {
                let (text, _) =
                    s.engine_over(catalog, wait).explain(&query, Strategy::Unnest, mode)?;
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
                check_arity(&stored, values.len())?;
                let vals = values
                    .iter()
                    .enumerate()
                    .map(|(i, o)| insert_value(cat, o, stored.schema().attr(i)))
                    .collect::<Result<Vec<_>, _>>()?;
                let d = Degree::new(degree).map_err(EngineError::Fuzzy)?;
                if d.is_positive() {
                    stored.file().append(&Tuple::new(vals, d).encode(stored.min_record_bytes()))?;
                }
                Ok(StatementResult::Affected(usize::from(d.is_positive())))
            }),
            // ANALYZE is the explicit way to re-plan: it takes the lock
            // exclusively and bumps the schema version, so every cached plan
            // and prepared query re-plans on its next use.
            Statement::Analyze { table } => self.write_locked(|s, cat| {
                use fuzzy_rel::AttrType;
                let names: Vec<String> = match table {
                    Some(t) => vec![t],
                    None => cat.table_names().map(|n| n.to_string()).collect(),
                };
                let mut built = 0usize;
                for name in names {
                    let t = cat
                        .table(&name)
                        .ok_or_else(|| EngineError::Bind(format!("unknown table {name:?}")))?;
                    let numeric: Vec<usize> = (t.schema().attributes().iter().enumerate())
                        .filter(|(_, attr)| attr.ty == AttrType::Number)
                        .map(|(idx, _)| idx)
                        .collect();
                    // One scan builds every missing histogram of the table.
                    s.shared.ctx.statistics.histograms_for(t, &numeric)?;
                    built += numeric.len();
                }
                cat.mark_analyzed();
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
                        if col.table.as_ref().is_some_and(|t| !t.eq_ignore_ascii_case(&table)) {
                            return Err(EngineError::Bind(format!(
                                "assignment target {col} is not a column of {table}"
                            )));
                        }
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
    /// exclusively; bumps the schema version (cached plans may resolve the
    /// term).
    pub fn define_term(&self, name: impl AsRef<str>, shape: Trapezoid) {
        let _ = self.write_locked(|_s, cat| {
            cat.vocabulary_mut().define(name.as_ref(), shape);
            Ok(())
        });
    }

    /// Creates an empty table (exclusive lock; schema version bump).
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), EngineError> {
        self.write_locked(|s, cat| {
            if cat.table(name).is_some() {
                return Err(EngineError::Bind(format!("table {name:?} already exists")));
            }
            cat.register(StoredTable::create(s.disk(), name, schema));
            Ok(())
        })
    }

    /// Inserts one tuple (exclusive lock). Tuples with degree 0 are not
    /// members and are silently skipped, matching the membership criterion
    /// of Section 2. A tuple whose arity or values do not fit the table's
    /// schema is a bind error. A data write: the schema version stays, so
    /// cached plans and prepared queries stay valid and read the new row.
    pub fn insert(&self, table: &str, tuple: Tuple) -> Result<(), EngineError> {
        self.write_locked(|_s, cat| {
            let t = cat
                .table(table)
                .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?;
            check_tuple(t, &tuple)?;
            if tuple.degree.is_positive() {
                t.file().append(&tuple.encode(t.min_record_bytes()))?;
            }
            Ok(())
        })
    }

    /// Bulk-loads tuples into a table (exclusive lock). Every tuple is
    /// checked against the schema, as [`Session::insert`] checks one, before
    /// any is written. A data write like [`Session::insert`]: cached plans
    /// keep the join order they were built with; run `ANALYZE` to re-plan
    /// after a large load.
    pub fn load<I: IntoIterator<Item = Tuple>>(
        &self,
        table: &str,
        tuples: I,
    ) -> Result<(), EngineError> {
        self.write_locked(|_s, cat| {
            let t = cat
                .table(table)
                .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?;
            let tuples: Vec<Tuple> = tuples.into_iter().collect();
            tuples.iter().try_for_each(|tuple| check_tuple(t, tuple))?;
            t.load(tuples)?;
            Ok(())
        })
    }

    /// The current catalog snapshot (tables + vocabulary). Reads through it
    /// do not block writers; it reflects the catalog as of this call.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.shared.catalog_snapshot()
    }

    /// The simulated disk (for I/O accounting in experiments).
    pub fn disk(&self) -> &SimDisk {
        &self.shared.ctx.disk
    }

    /// Exact counters of the shared verified-plan cache.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.shared.ctx.plan_cache.stats()
    }

    /// The database-wide serving counters (statements in flight, peak,
    /// total statements, accumulated lock wait).
    pub fn serving_counters(&self) -> &ServingCounters {
        &self.shared.ctx.serving
    }

    /// Shared DELETE/UPDATE machinery: rewrites the table under the
    /// exclusive lock, applying `map` to matching tuples (`None` = delete).
    /// Returns the number of matches. A tuple matches when its
    /// WHERE-condition degree meets `threshold` (is positive without one);
    /// its membership degree takes no part, unlike in a SELECT's
    /// `WITH D > z`, which bars min(membership, condition). The condition is matched by the
    /// serving-mode naive evaluator: every row is matched against the
    /// pre-write catalog, so a closed sub-query is evaluated once for the
    /// whole table.
    ///
    /// The kept rows are written to a fresh file only once the scan has
    /// succeeded; that file replaces the table's file — a data-only change,
    /// so the schema version stays. The replaced file is retired: its pages
    /// return to the disk once no catalog snapshot (e.g. one from
    /// [`Session::catalog`]) holds it, and on a persistent database once a
    /// saved manifest no longer lists it. A snapshot that holds it keeps
    /// scanning its old rows.
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
                .ok_or_else(|| EngineError::Bind(format!("unknown table {table:?}")))?;
            let evaluator = fuzzy_engine::NaiveEvaluator::serving(cat);
            let (z, strict) = match threshold {
                Some(t) => (Degree::clamped(t.z), t.strict),
                None => (Degree::ZERO, true),
            };
            let mut kept: Vec<Tuple> = Vec::new();
            let mut affected = 0usize;
            for t in stored.scan() {
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
            let fresh = HeapFile::create(s.disk());
            let written = {
                let mut w = fresh.bulk_writer();
                kept.iter()
                    .try_for_each(|t| w.append(&t.encode(stored.min_record_bytes())))
                    .and_then(|()| w.finish())
            };
            if let Err(e) = written {
                // `fresh` is the only handle left: free what it wrote.
                let _ = fresh.release();
                return Err(e.into());
            }
            if let Some(old) = cat.replace_file(table, fresh) {
                s.shared.retire(old);
            }
            Ok(StatementResult::Affected(affected))
        })
    }
}

/// Checks that a row of `n` values has one value per column of `table`.
fn check_arity(table: &StoredTable, n: usize) -> Result<(), EngineError> {
    let columns = table.schema().len();
    if n != columns {
        return Err(EngineError::Bind(format!(
            "{n} values for {columns} columns of {}",
            table.name()
        )));
    }
    Ok(())
}

/// Checks a tuple against `table`'s schema before it is written: one value
/// per column ([`check_arity`], which the INSERT statement shares), each of
/// its column's type. NULL fits any column.
fn check_tuple(table: &StoredTable, tuple: &Tuple) -> Result<(), EngineError> {
    use fuzzy_core::Value;
    use fuzzy_rel::AttrType;
    check_arity(table, tuple.values.len())?;
    for (v, attr) in tuple.values.iter().zip(table.schema().attributes()) {
        let fits = match v {
            Value::Null => true,
            Value::Text(_) => attr.ty == AttrType::Text,
            Value::Number(_) | Value::Fuzzy(_) => attr.ty == AttrType::Number,
        };
        if !fits {
            return Err(EngineError::Bind(format!(
                "value {v:?} does not fit {:?} column {}",
                attr.ty, attr.name
            )));
        }
    }
    Ok(())
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

    /// Renders the deterministic `EXPLAIN` text of the statement's strategy
    /// without running.
    pub fn explain(self) -> Result<String, EngineError> {
        Ok(self.explained(ExplainMode::Plan)?.0)
    }

    /// Runs the statement under its strategy and renders `EXPLAIN ANALYZE`
    /// (the plan annotated with actual counters, plus the serving section).
    pub fn explain_analyze(self) -> Result<(String, QueryOutcome), EngineError> {
        match self.explained(ExplainMode::Analyze)? {
            (text, Some(outcome)) => Ok((text, outcome)),
            (_, None) => unreachable!("EXPLAIN ANALYZE runs the statement"),
        }
    }

    /// Renders the `EXPLAIN VERIFY` text (the static verifier's report on the
    /// operator tree of the statement's strategy).
    pub fn explain_verify(self) -> Result<String, EngineError> {
        Ok(self.explained(ExplainMode::Verify)?.0)
    }

    /// Renders the statement's plan in `mode` through [`Engine::explain`].
    fn explained(self, mode: ExplainMode) -> Result<(String, Option<QueryOutcome>), EngineError> {
        let q = fuzzy_sql::parse(&self.sql)?;
        self.session.read_locked(|s, catalog, wait| {
            s.engine_over(catalog, wait).explain(&q, self.strategy, mode)
        })
    }
}

/// A statement prepared once against a schema version: parsing,
/// classification, planning, and static verification happened at
/// [`Session::prepare`] time, and every [`PreparedQuery::run`] replays the
/// pinned plan with zero re-planning and zero re-verification over the data
/// of that moment. After DDL, DEFINE TERM or ANALYZE bumps the schema
/// version, running fails with [`EngineError::StalePlan`] until the
/// statement is prepared again; INSERT, UPDATE and DELETE do not.
pub struct PreparedQuery {
    session: Session,
    query: fuzzy_sql::Query,
    planned: Planned,
    schema_version: u64,
}

impl PreparedQuery {
    /// The schema version the plan is pinned to.
    pub fn planned_version(&self) -> u64 {
        self.schema_version
    }

    /// Runs the pinned plan over the current data. Holds the catalog lock
    /// shared for the statement; fails with [`EngineError::StalePlan`] if
    /// the schema version has moved since [`Session::prepare`].
    pub fn run(&self) -> Result<QueryOutcome, EngineError> {
        self.session.read_locked(|s, catalog, wait| {
            self.check_fresh(&catalog)?;
            let info = ServingInfo {
                cache_hit: Some(true),
                plan_verifications: 0,
                cache: s.plan_cache_stats(),
                ..Default::default()
            };
            s.engine_over(catalog, wait).run_planned(&self.query, &self.planned, info)
        })
    }

    /// Runs the pinned plan and returns just the answer relation.
    pub fn collect(&self) -> Result<Relation, EngineError> {
        Ok(self.run()?.answer)
    }

    /// Renders the deterministic `EXPLAIN` text of the pinned plan
    /// (stale-checked like [`PreparedQuery::run`]).
    pub fn explain(&self) -> Result<String, EngineError> {
        self.session.read_locked(|s, catalog, wait| {
            self.check_fresh(&catalog)?;
            let info = ServingInfo::default();
            let engine = s.engine_over(catalog, wait);
            Ok(engine.explain_planned(&self.query, &self.planned, info, ExplainMode::Plan)?.0)
        })
    }

    fn check_fresh(&self, catalog: &Catalog) -> Result<(), EngineError> {
        if catalog.schema_version() != self.schema_version {
            return Err(EngineError::StalePlan {
                planned_version: self.schema_version,
                catalog_version: catalog.schema_version(),
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
