//! The shared plan cache behind concurrent query serving.
//!
//! The paper's unnesting transformations (Sections 4–8) do real work per
//! statement: classify the nesting shape, build the flat plan, pick a join
//! order, and statically verify the physical-property declarations. For a
//! long-lived server answering the same fuzzy queries again and again, all
//! of that is pure function of (normalized SQL, strategy, schema version,
//! plan-shaping configuration) — exactly what a cache exploits.
//!
//! An entry stores the [`VerifiedPlan`] behind an [`Arc`] — the operator
//! tree the statement's strategy lowers its plan to, verified when it was
//! built — or the fact that the statement falls back to the naive
//! evaluator. Lookups that hit skip classification, planning, join-order
//! search, lowering **and** re-verification; the executor drives the cached
//! tree directly. DDL, DEFINE TERM and ANALYZE bump the catalog's schema
//! version (see `fuzzy_rel::Catalog::schema_version`), so stale entries
//! never hit — they are dropped and counted as invalidations on their next
//! lookup. INSERT, UPDATE and DELETE leave the schema version alone: a
//! cached tree names its tables and the executor binds them through each
//! statement's catalog snapshot, so an entry stays valid while the data
//! changes and reads the rows of the moment.
//!
//! The cache is internally synchronized (one mutex around the map, atomics
//! for the counters) and is shared by every session of a database; all
//! counters are exact, so a fixed statement schedule produces deterministic
//! hit/miss/invalidation counts (asserted by `tests/concurrent_serving.rs`).

use crate::engine::Strategy;
use crate::exec::ExecConfig;
use crate::verify::VerifiedPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What the planner decided for a statement: a verified operator tree or the
/// naive fallback. Cached so repeated fallback statements skip
/// re-classification; `EXPLAIN` renders it.
#[derive(Debug, Clone)]
pub enum Planned {
    /// The verified operator tree of the statement's strategy, shared by
    /// every execution that hits the entry.
    Plan(Arc<VerifiedPlan>),
    /// The statement shape has no unnested form; the engine evaluates it
    /// with the semantics-faithful naive evaluator. Carries the planner's
    /// `Unsupported` reason.
    NaiveFallback(Arc<str>),
}

#[derive(Debug)]
struct Entry {
    /// Schema version the plan was built against.
    schema_version: u64,
    planned: Planned,
    /// Logical clock of the last hit (for least-recently-used eviction).
    last_used: u64,
}

/// Exact cache counters (a snapshot; see [`PlanCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a live entry.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups that found an entry built against an older schema version
    /// (the entry is dropped and the lookup also counts as a miss).
    pub invalidations: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
}

/// A bounded, internally synchronized map from
/// `(normalized SQL, strategy, plan-shaping config) × schema version` to
/// verified plans.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<HashMap<String, Entry>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

/// Default number of cached statements per database.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` statements (LRU eviction).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cache key for a parsed query under a strategy and a
    /// configuration: the canonically rendered SQL (whitespace/case
    /// normalized by the parser→display round trip), the strategy the plan
    /// is lowered for, and the config knobs that shape plan verification.
    /// `threads` is deliberately excluded — any thread count runs the same
    /// plan with bit-identical counters.
    pub fn key(q: &fuzzy_sql::Query, strategy: Strategy, config: &ExecConfig) -> String {
        format!(
            "{q}|{} rj={} tp={} jm={:?}",
            strategy.name(),
            config.reorder_joins,
            config.threshold_pushdown,
            config.join_method
        )
    }

    /// Looks up a live entry for `key` at `schema_version`. A mismatch
    /// drops the entry and counts an invalidation; both that case and a
    /// plain absence count a miss.
    pub fn lookup(&self, key: &str, schema_version: u64) -> Option<Planned> {
        let mut map = self.inner.lock().expect("plan cache lock");
        match map.get_mut(key) {
            Some(e) if e.schema_version == schema_version => {
                e.last_used = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.planned.clone())
            }
            Some(_) => {
                map.remove(key);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) the entry for `key` at `schema_version`,
    /// evicting the least-recently-used entry if the cache is full.
    pub fn insert(&self, key: String, schema_version: u64, planned: Planned) {
        let mut map = self.inner.lock().expect("plan cache lock");
        if !map.contains_key(&key) && map.len() >= self.capacity {
            if let Some(lru) = map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone()) {
                map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        map.insert(key, Entry { schema_version, planned, last_used });
    }

    /// An exact snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("plan cache lock").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planned() -> Planned {
        Planned::NaiveFallback("test".into())
    }

    #[test]
    fn hit_miss_and_invalidation_counting() {
        let c = PlanCache::new(4);
        assert!(c.lookup("q1", 0).is_none());
        c.insert("q1".into(), 0, planned());
        assert!(c.lookup("q1", 0).is_some());
        // Schema version bump: the entry is stale, dropped, and counted.
        assert!(c.lookup("q1", 1).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let c = PlanCache::new(2);
        c.insert("a".into(), 0, planned());
        c.insert("b".into(), 0, planned());
        let _ = c.lookup("a", 0); // touch a: b is now the LRU entry
        c.insert("c".into(), 0, planned());
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup("a", 0).is_some(), "recently used entry survives");
        assert!(c.lookup("b", 0).is_none(), "LRU entry was evicted");
    }

    #[test]
    fn key_separates_plan_shaping_config() {
        let q = fuzzy_sql::parse("SELECT R.ID FROM R").unwrap();
        let key =
            |q: &fuzzy_sql::Query, config: &ExecConfig| PlanCache::key(q, Strategy::Unnest, config);
        let base = ExecConfig::default();
        let mut other = base;
        other.threshold_pushdown = false;
        assert_ne!(key(&q, &base), key(&q, &other));
        let mut threads_only = base;
        threads_only.threads = 8;
        assert_eq!(key(&q, &base), key(&q, &threads_only), "threads never shape the plan");
        // Normalization: case/whitespace variants share a key.
        let q2 = fuzzy_sql::parse("select   R.ID  from R").unwrap();
        assert_eq!(key(&q, &base), key(&q2, &base));
        // The strategy chooses the operator tree: the same SQL under each
        // physical strategy gets its own entry.
        let keys: Vec<String> =
            [Strategy::Unnest, Strategy::NestedLoop, Strategy::MaterializedNestedLoop]
                .into_iter()
                .map(|s| PlanCache::key(&q, s, &base))
                .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanCache>();
        assert_send_sync::<Planned>();
    }
}
