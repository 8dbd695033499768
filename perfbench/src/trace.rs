//! Per-layer tracing (`--trace 1`): spans recorded around the calls into
//! each layer of a statement, and the per-layer metrics derived from them.
//!
//! A traced read performs the same steps as `Session::query(sql).run()`, one
//! layer at a time so each can be timed: parse (`fuzzy_sql`), catalog
//! snapshot (the serving layer's read lock), plan (a plan-cache lookup, or
//! classify + unnest + verify on a miss), and execute (lowering, the
//! operator tree, presentation, and temporary-page reclamation). Operator
//! wall times and exact counters come from the statement's `QueryMetrics`
//! registry. Operators run one at a time, so their spans are laid end to
//! end from the start of the execute span.

use fuzzy_db::engine::OpKind;
use fuzzy_db::{EngineError, QueryOutcome, Session, StatementResult};
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans are kept for this many statements; the sums cover every statement.
const KEPT_STATEMENTS: u64 = 1000;

/// Operator kinds reported as layers of their own, with their metric names.
/// The naive fallback evaluator is not among them: its time counts in
/// `exec_other_us`.
const OP_LAYERS: [(OpKind, &str); 6] = [
    (OpKind::Scan, "scan_us"),
    (OpKind::Sort, "sort_us"),
    (OpKind::Join, "join_us"),
    (OpKind::Anti, "anti_us"),
    (OpKind::Aggregate, "agg_us"),
    (OpKind::Output, "output_us"),
];

struct Span {
    stmt: u64,
    name: String,
    parent: Option<&'static str>,
    start: Duration,
    dur: Duration,
}

#[derive(Default)]
struct Sums {
    reads: u64,
    parse: Duration,
    snapshot: Duration,
    plan: Duration,
    execute: Duration,
    lock_wait: Duration,
    ops: [Duration; OP_LAYERS.len()],
    pairs: u64,
    fuzzy_comparisons: u64,
    sort_comparisons: u64,
    page_io: u64,
    buffer_requests: u64,
    buffer_hits: u64,
    cache_hits: u64,
}

/// Spans of the run so far plus per-layer sums over its read statements.
pub struct Tracer {
    origin: Instant,
    stmt: u64,
    spans: Vec<Span>,
    sums: Sums,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), stmt: 0, spans: Vec::new(), sums: Sums::default() }
    }

    fn span(
        &mut self,
        name: impl Into<String>,
        parent: Option<&'static str>,
        t0: Instant,
        t1: Instant,
    ) {
        self.spans.push(Span {
            stmt: self.stmt,
            name: name.into(),
            parent,
            start: t0 - self.origin,
            dur: t1 - t0,
        });
    }

    /// Runs one read statement layer by layer, recording its spans.
    pub fn read(&mut self, session: &Session, sql: &str) -> Result<QueryOutcome, EngineError> {
        let t0 = Instant::now();
        let q = fuzzy_db::sql::parse(sql)?;
        let t1 = Instant::now();
        let engine = session.engine();
        let t2 = Instant::now();
        let (planned, info) = engine.plan_for(&q)?;
        let t3 = Instant::now();
        let out = engine.run_planned(&q, &planned, info)?;
        let t4 = Instant::now();

        let s = &mut self.sums;
        s.reads += 1;
        s.parse += t1 - t0;
        s.snapshot += t2 - t1;
        s.plan += t3 - t2;
        s.execute += t4 - t3;
        s.lock_wait += out.serving.lock_wait;
        s.cache_hits += u64::from(out.serving.cache_hit == Some(true));
        for node in out.metrics.ops() {
            if let Some(i) = OP_LAYERS.iter().position(|(kind, _)| *kind == node.kind) {
                s.ops[i] += node.wall;
            }
        }
        let totals = out.metrics.totals();
        s.pairs += totals.pairs_examined;
        s.fuzzy_comparisons += totals.fuzzy_comparisons;
        s.sort_comparisons += totals.sort_comparisons;
        s.page_io += totals.page_reads + totals.page_writes;
        s.buffer_requests += totals.buffer_requests;
        s.buffer_hits += totals.buffer_hits;

        if self.stmt < KEPT_STATEMENTS {
            self.span("statement", None, t0, t4);
            self.span("parse", Some("statement"), t0, t1);
            self.span("snapshot", Some("statement"), t1, t2);
            self.span("plan", Some("statement"), t2, t3);
            self.span("execute", Some("statement"), t3, t4);
            let mut at = t3;
            for node in out.metrics.ops() {
                let name = format!("{}: {}", node.kind.name(), node.label);
                self.span(name, Some("execute"), at, at + node.wall);
                at += node.wall;
            }
        }
        self.stmt += 1;
        Ok(out)
    }

    /// Runs one DML statement, recording its span.
    pub fn write(&mut self, session: &Session, sql: &str) -> Result<StatementResult, EngineError> {
        let t0 = Instant::now();
        let result = session.execute(sql);
        if self.stmt < KEPT_STATEMENTS {
            self.span("write", None, t0, Instant::now());
        }
        self.stmt += 1;
        result
    }

    /// The per-layer metrics: times and counts are means per read
    /// statement, ratios are over the whole run. Times are multiplied by
    /// `scale`, the run's factor to the reference speed (`calibrate.rs`).
    pub fn metrics(&self, scale: f64) -> Vec<(&'static str, f64, &'static str)> {
        let s = &self.sums;
        let reads = s.reads.max(1) as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6 * scale / reads;
        let per_stmt = |n: u64| n as f64 / reads;
        let in_ops: Duration = s.ops.iter().sum();
        let mut m = vec![
            ("parse_us", us(s.parse), "us"),
            ("snapshot_us", us(s.snapshot), "us"),
            ("plan_us", us(s.plan), "us"),
            ("execute_us", us(s.execute), "us"),
            ("exec_other_us", us(s.execute.saturating_sub(in_ops)), "us"),
        ];
        for ((_, name), d) in OP_LAYERS.iter().zip(s.ops) {
            m.push((*name, us(d), "us"));
        }
        m.extend([
            ("lock_wait_us", us(s.lock_wait), "us"),
            ("pairs_per_stmt", per_stmt(s.pairs), "count"),
            ("fuzzy_cmp_per_stmt", per_stmt(s.fuzzy_comparisons), "count"),
            ("sort_cmp_per_stmt", per_stmt(s.sort_comparisons), "count"),
            ("page_io_per_stmt", per_stmt(s.page_io), "count"),
            ("buffer_hit_ratio", s.buffer_hits as f64 / s.buffer_requests.max(1) as f64, "ratio"),
            ("cache_hit_ratio", s.cache_hits as f64 / reads, "ratio"),
        ]);
        m
    }

    /// Writes the kept spans, one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"stmt\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.3}, \
                 \"dur_us\": {:.3}}}",
                s.stmt,
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}
