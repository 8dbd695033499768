//! Concurrent serving stress tests: N sessions × M statements against one
//! shared database must produce bit-identical answers and degrees to a
//! serial replay, with deterministic plan-cache counters for a fixed
//! statement schedule (wall times and lock waits are the only
//! nondeterministic outputs).
//!
//! Covers the serving layer end to end: shared catalog handles, session
//! concurrency, the verified-plan cache (hits skip re-verification),
//! DDL/DML invalidation, prepared-statement staleness, and the serving
//! counters returning to rest.

use fuzzy_db::core::Value;
use fuzzy_db::rel::{AttrType, Schema, Tuple};
use fuzzy_db::{Database, EngineError, Session, Strategy};
use std::sync::{Arc, Barrier};

/// The deterministic three-table fixture of the verifier suite, scaled:
/// R has `8 * scale` tuples, S `6 * scale`, T `4 * scale`, all with the same
/// (ID, X, V) numeric schema so every query class can be expressed.
fn fixture(scale: usize) -> Database {
    let db = Database::with_paper_vocabulary();
    for (name, base) in [("R", 8usize), ("S", 6), ("T", 4)] {
        db.create_table(
            name,
            Schema::of(&[
                ("ID", AttrType::Number),
                ("X", AttrType::Number),
                ("V", AttrType::Number),
            ]),
        )
        .unwrap();
        db.load(
            name,
            (0..base * scale).map(|i| {
                Tuple::full(vec![
                    Value::number(i as f64),
                    Value::number((i % 3) as f64 * 10.0),
                    Value::number(100.0 + i as f64),
                ])
            }),
        )
        .unwrap();
    }
    db
}

/// One query per class of the paper's catalogue (the verifier corpus): flat,
/// N, J, SOME, NX, JX, A, JA, ALL, a 3-level chain, and the general fallback.
const CORPUS: &[&str] = &[
    "SELECT R.ID FROM R, S WHERE R.X = S.X WITH D > 0.3",
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)",
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.V = R.V)",
    "SELECT R.ID FROM R WHERE R.X = SOME (SELECT S.X FROM S WHERE S.V = R.V)",
    "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)",
    "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S WHERE S.V = R.V)",
    "SELECT R.ID FROM R WHERE R.V > (SELECT AVG(S.V) FROM S)",
    "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)",
    "SELECT R.ID FROM R WHERE R.V > ALL (SELECT T.V FROM T)",
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.X IN (SELECT T.X FROM T))",
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) AND R.V IN (SELECT T.V FROM T)",
];

/// Serial replay of the corpus on a fresh fixture: the reference answers.
fn serial_reference(scale: usize) -> Vec<fuzzy_db::rel::Relation> {
    let db = fixture(scale);
    CORPUS.iter().map(|sql| db.query(sql).collect().unwrap().canonicalized()).collect()
}

#[test]
fn concurrent_sessions_match_serial_replay_bit_for_bit() {
    let reference = Arc::new(serial_reference(2));
    const ROUNDS: usize = 2;
    for sessions in [1usize, 2, 4, 8] {
        let db = fixture(2);
        let statements_before = db.serving_counters().statements();
        let start = Arc::new(Barrier::new(sessions));
        let handles: Vec<_> = (0..sessions)
            .map(|offset| {
                let session = db.session();
                let reference = reference.clone();
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    // Each session walks the corpus from its own offset so
                    // different statements overlap in time.
                    for round in 0..ROUNDS {
                        for i in 0..CORPUS.len() {
                            let idx = (i + offset + round) % CORPUS.len();
                            let ans = session.query(CORPUS[idx]).collect().unwrap();
                            assert_eq!(
                                ans.canonicalized(),
                                reference[idx],
                                "sessions={sessions} offset={offset} statement={idx}"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let counters = db.serving_counters();
        assert_eq!(counters.in_flight(), 0, "every statement exited");
        assert!(counters.peak_in_flight() >= 1);
        assert_eq!(
            counters.statements() - statements_before,
            (sessions * ROUNDS * CORPUS.len()) as u64,
            "every statement was counted exactly once"
        );
        // The cache key space is the corpus: however the schedule interleaved,
        // at most |corpus| plans were ever built *per planning race*, and the
        // counters are exact: hits + misses = total lookups.
        let s = db.plan_cache_stats();
        assert_eq!(
            s.hits + s.misses,
            (sessions * ROUNDS * CORPUS.len()) as u64,
            "every unnest statement consulted the cache exactly once"
        );
        assert_eq!(s.invalidations, 0, "no DDL/DML ran");
        assert_eq!(s.entries, CORPUS.len());
    }
}

#[test]
fn plan_cache_counters_are_deterministic_for_a_fixed_schedule() {
    let db = fixture(1);
    for _ in 0..3 {
        for sql in CORPUS {
            db.query(sql).collect().unwrap();
        }
    }
    let s = db.plan_cache_stats();
    assert_eq!(s.misses, CORPUS.len() as u64, "each statement planned exactly once");
    assert_eq!(s.hits, 2 * CORPUS.len() as u64, "rounds two and three fully cached");
    assert_eq!(s.invalidations, 0);
    assert_eq!(s.evictions, 0);
    assert_eq!(s.entries, CORPUS.len());
}

#[test]
fn ddl_and_dml_invalidate_cached_plans() {
    let db = fixture(1);
    let sql = CORPUS[2]; // type J
    db.query(sql).collect().unwrap(); // miss: planned + cached
    db.query(sql).collect().unwrap(); // hit
                                      // DML bumps the catalog version: the entry is stale on next lookup.
    db.insert(
        "R",
        Tuple::full(vec![Value::number(99.0), Value::number(10.0), Value::number(199.0)]),
    )
    .unwrap();
    let ans = db.query(sql).collect().unwrap(); // invalidation + miss, replanned
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
    // The replanned query sees the new tuple.
    let naive = db.query(sql).strategy(Strategy::Naive).run().unwrap();
    assert_eq!(ans.canonicalized(), naive.answer.canonicalized());
    // DDL invalidates as well.
    db.create_table("Z", Schema::of(&[("A", AttrType::Number)])).unwrap();
    db.query(sql).collect().unwrap();
    assert_eq!(db.plan_cache_stats().invalidations, 2);
}

#[test]
fn explain_analyze_reports_cache_hit_with_zero_reverification() {
    let db = fixture(1);
    let sql = CORPUS[2];
    // Prime the cache: the first statement misses and verifies once.
    let first = db.query(sql).run().unwrap();
    assert_eq!(first.serving.cache_hit, Some(false));
    assert_eq!(first.serving.plan_verifications, 1, "plans verify exactly once, at build");
    // The repeat is a hit with zero re-verification, and EXPLAIN ANALYZE
    // says so in its serving section.
    let (text, outcome) = db.query(sql).explain_analyze().unwrap();
    assert_eq!(outcome.serving.cache_hit, Some(true));
    assert_eq!(outcome.serving.plan_verifications, 0);
    assert!(outcome.serving.cache.hits > 0);
    assert!(
        text.contains("plan cache: hit (verifications this statement: 0)"),
        "serving section missing from:\n{text}"
    );
    assert!(text.contains("sessions in flight:"), "{text}");
    assert!(text.contains("cache totals:"), "{text}");
}

#[test]
fn prepared_statements_replay_across_threads_and_go_stale() {
    let db = fixture(1);
    let sql = CORPUS[1];
    let reference = db.query(sql).collect().unwrap().canonicalized();
    let prepared = Arc::new(db.prepare(sql).unwrap());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let prepared = prepared.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                for _ in 0..3 {
                    let out = prepared.run().unwrap();
                    assert_eq!(out.answer.canonicalized(), reference);
                    assert_eq!(out.serving.plan_verifications, 0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Any DML bumps the catalog version: the pinned plan must refuse to run.
    // The new R row matches (X = 10 exists in S), so the answer must grow.
    db.insert(
        "R",
        Tuple::full(vec![Value::number(100.0), Value::number(10.0), Value::number(150.0)]),
    )
    .unwrap();
    match prepared.run() {
        Err(EngineError::StalePlan { planned_version, catalog_version }) => {
            assert!(catalog_version > planned_version)
        }
        other => panic!("expected StalePlan, got {other:?}"),
    }
    assert!(prepared.explain().is_err(), "explain is stale-checked too");
    // Re-preparing picks up the new catalog version and the new data.
    let again = db.prepare(sql).unwrap();
    assert!(again.planned_version() > prepared.planned_version());
    assert_eq!(again.collect().unwrap().len(), reference.len() + 1);
}

#[test]
fn writers_serialize_against_readers_with_consistent_phases() {
    // Phase-barriered readers and one writer: every reader observes either
    // the pre-write or the post-write catalog, never a torn state, and after
    // the write phase everyone sees the new row.
    let db = fixture(1);
    let sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)";
    let before = db.query(sql).collect().unwrap().len();
    let readers = 4usize;
    let phase = Arc::new(Barrier::new(readers + 1));
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let session = db.session();
            let phase = phase.clone();
            let sql = sql.to_string();
            std::thread::spawn(move || {
                phase.wait(); // phase 1: concurrent reads pre-write
                let n1 = session.query(&sql).collect().unwrap().len();
                phase.wait(); // writer runs between these barriers
                phase.wait();
                let n2 = session.query(&sql).collect().unwrap().len();
                (n1, n2)
            })
        })
        .collect();
    let writer: Session = db.session();
    phase.wait(); // phase 1 starts
    phase.wait(); // readers finished phase 1
    writer
        .insert(
            "R",
            Tuple::full(vec![Value::number(100.0), Value::number(0.0), Value::number(7.0)]),
        )
        .unwrap();
    phase.wait(); // phase 2 starts
    let after = db.query(sql).collect().unwrap().len();
    assert_eq!(after, before + 1);
    for h in handles {
        let (n1, n2) = h.join().unwrap();
        assert_eq!(n1, before, "pre-write phase sees the original catalog");
        assert_eq!(n2, after, "post-write phase sees the committed row");
    }
    assert!(db.plan_cache_stats().invalidations >= 1, "the write invalidated cached plans");
    assert_eq!(db.serving_counters().in_flight(), 0);
}

#[test]
fn per_session_config_is_isolated() {
    let db = fixture(1);
    let sql = "SELECT R.ID FROM R, S WHERE R.X = S.X";
    let mut thresholded = db.session();
    thresholded.set_default_threshold(Some(0.999));
    thresholded.set_threads(4);
    let mut plain = db.session();
    plain.set_threads(2);
    // The thresholded session filters everything (all degrees are <= 1 and
    // the fixture's matches are crisp, degree exactly 1 -> strict > 0.999
    // keeps them; raise to 1.0 to drop them all).
    thresholded.set_default_threshold(Some(1.0));
    assert_eq!(thresholded.query(sql).collect().unwrap().len(), 0);
    let full = plain.query(sql).collect().unwrap();
    assert!(!full.is_empty(), "the other session is unaffected");
    // An explicit WITH D in the SQL wins over the session default.
    let explicit = format!("{sql} WITH D > 0.0");
    assert_eq!(
        thresholded.query(&explicit).collect().unwrap().len(),
        full.len(),
        "explicit threshold overrides the session default"
    );
    // Thread counts never change answers (bit-identical guarantee).
    assert_eq!(
        plain.query(sql).collect().unwrap().canonicalized(),
        db.query(sql).collect().unwrap().canonicalized()
    );
}

#[test]
fn serving_handles_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<fuzzy_db::PreparedQuery>();
    assert_send_sync::<Database>();
}
