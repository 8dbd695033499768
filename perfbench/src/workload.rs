//! The three workloads: their data, statement scripts, and answer checks.
//!
//! Every input is derived from the `--seed` argument through [`Rng`], so a
//! seed fixes the tables, the statement order, and every DML literal. Table
//! sizes and statement mixes do not depend on the seed, and the small tables
//! hold the same multiset of join values for every seed (the seed decides
//! which row gets which value and the shapes of the ill-known ones), so runs
//! with different seeds cost about the same.

use fuzzy_db::core::{Trapezoid, Value};
use fuzzy_db::rel::{AttrType, Catalog, Relation, Schema, Tuple};
use fuzzy_db::storage::SimDisk;
use fuzzy_db::workload::{generate, WorkloadSpec};
use fuzzy_db::{Database, EngineError, QueryOutcome, Session, StatementResult, Strategy};
use std::collections::VecDeque;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Section 9 experiment: nested queries over two generated
    /// relations large enough that the external sort spills.
    Analytic,
    /// The eleven query classes of the paper's catalogue over small tables,
    /// read-only, so nearly every statement hits the plan cache.
    Nested,
    /// The same small statements with one DML statement after every three
    /// reads; each write bumps the catalog version and invalidates every
    /// cached plan.
    Mixed,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "analytic" => Some(Kind::Analytic),
            "nested" => Some(Kind::Nested),
            "mixed" => Some(Kind::Mixed),
            _ => None,
        }
    }
}

/// The Section 9 relations R and S (schema `ID, X, V`, 128-byte tuples,
/// fan-out C = 7): the 4 MB row of Table 1 at the paper's 1/8 scale.
const ANALYTIC_TUPLES: usize = 4000;

/// The paper's 2 MB buffer at the same 1/8 scale (`experiments --scale 8`),
/// so sorts of the analytic relations spill to runs as in Section 9.
const ANALYTIC_BUFFER_PAGES: usize = 32;

/// The analytic statements: the paper's canonical type J query, a type NX
/// anti-join, and a type JA aggregate over the same relations, so sort,
/// merge-join, anti, and aggregate operators all run on large inputs. An odd
/// number of statements keeps the latency median inside one statement's
/// samples instead of on the edge between two.
const ANALYTIC_READS: &[&str] = &[
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)",
    "SELECT R.ID FROM R WHERE R.X NOT IN (SELECT S.X FROM S)",
    "SELECT R.ID FROM R WHERE R.V <= (SELECT MAX(S.V) FROM S WHERE S.X = R.X)",
];

/// One query per class of the paper's catalogue: flat, N, J, SOME, NX, JX,
/// A, JA, ALL, a three-level chain, and a shape that falls back to the
/// naive evaluator.
const SMALL_READS: &[&str] = &[
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

/// Sizes of the small tables R, S, and T.
const SMALL_TABLES: [(&str, usize); 3] = [("R", 64), ("S", 48), ("T", 32)];

/// Grid points of the small tables' `X` values.
const SMALL_CENTRES: u64 = 12;

/// Distinct `V` values of the small tables.
const SMALL_V_VALUES: u64 = 6;

/// In the mixed workload, every fourth statement is a write.
const WRITE_EVERY: u64 = 4;

/// In the mixed workload, every eighth read is checked against the naive
/// evaluator on the data of the moment. The naive evaluator re-runs each
/// nested block per outer tuple (the three-level chain alone costs as much
/// as dozens of unnested statements), so checking every read would leave
/// little of the run for measuring.
const MIXED_CHECK_EVERY: u64 = 8;

/// SplitMix64: a small, seedable generator, so the inputs depend on nothing
/// but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_F022_D8B3_0001)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `items` in place (Fisher-Yates).
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// An `X` value around grid point `centre`: crisp, or a triangular
/// possibility distribution with a seeded width and peak. Returned with its
/// SQL literal.
fn x_value(rng: &mut Rng, centre: u64, fuzzy: bool) -> (Value, String) {
    let c = 10 * centre as i64;
    if !fuzzy {
        return (Value::number(c as f64), c.to_string());
    }
    let w = 2 + rng.below(5) as i64;
    let peak = c + rng.below(3) as i64 - 1;
    let t = Trapezoid::triangular((c - w) as f64, peak as f64, (c + w) as f64)
        .expect("left < peak < right by construction");
    (Value::fuzzy(t), format!("TRI({}, {peak}, {})", c - w, c + w))
}

/// The `k`-th of the small tables' crisp `V` values.
fn v_value(k: u64) -> f64 {
    (100 + 5 * k) as f64
}

/// The rows of one small table. Every grid point, `V` value, and crisp or
/// ill-known kind occurs equally often; the seed shuffles them
/// independently, so joins and correlations match about as often whatever
/// the seed.
fn small_rows(rng: &mut Rng, n: usize) -> Vec<Tuple> {
    let mut balanced = |k: u64| {
        let mut v: Vec<u64> = (0..n as u64).map(|i| i % k).collect();
        rng.shuffle(&mut v);
        v
    };
    let (centres, vs, kinds) = (balanced(SMALL_CENTRES), balanced(SMALL_V_VALUES), balanced(2));
    (0..n)
        .map(|i| {
            let (x, _) = x_value(rng, centres[i], kinds[i] == 1);
            Tuple::full(vec![Value::number(i as f64), x, Value::number(v_value(vs[i]))])
        })
        .collect()
}

/// A statement of a workload script.
pub enum Stmt {
    /// A SELECT; `slot` indexes the workload's distinct read statements.
    Read { slot: usize },
    /// A DML statement that must affect exactly one tuple.
    Write { sql: String },
}

/// The DML generator of the mixed workload. Writes rotate INSERT, UPDATE,
/// DELETE over tables S and R; a DELETE removes the oldest live row, so each
/// table keeps its size within one row of the start.
struct Writes {
    rng: Rng,
    next_id: u64,
    /// Live row ids of S and R, oldest first.
    live: [VecDeque<u64>; 2],
    count: u64,
}

impl Writes {
    fn new(seed: u64) -> Writes {
        let rows = |t: usize| (0..SMALL_TABLES[t].1 as u64).collect();
        Writes {
            rng: Rng::new(seed.wrapping_add(1)),
            next_id: 1_000_000,
            live: [rows(1), rows(0)],
            count: 0,
        }
    }

    fn next(&mut self) -> String {
        let k = self.count;
        self.count += 1;
        let t = ((k / 3) % 2) as usize;
        let table = ["S", "R"][t];
        match k % 3 {
            0 => {
                let id = self.next_id;
                self.next_id += 1;
                self.live[t].push_back(id);
                let (centre, fuzzy) = (self.rng.below(SMALL_CENTRES), self.rng.below(2) == 1);
                let (_, x) = x_value(&mut self.rng, centre, fuzzy);
                let v = v_value(self.rng.below(SMALL_V_VALUES));
                format!("INSERT INTO {table} VALUES ({id}, {x}, {v})")
            }
            1 => {
                let live = &self.live[t];
                let id = live[self.rng.below(live.len() as u64) as usize];
                let v = v_value(self.rng.below(SMALL_V_VALUES));
                format!("UPDATE {table} SET V = {v} WHERE {table}.ID = {id}")
            }
            _ => {
                let id = self.live[t].pop_front().expect("a table never runs out of rows");
                format!("DELETE FROM {table} WHERE {table}.ID = {id}")
            }
        }
    }
}

/// A built database plus the statements a run sends to it.
pub struct Workload {
    kind: Kind,
    /// Keeps the shared database state alive for the session.
    _db: Database,
    pub session: Session,
    reads: &'static [&'static str],
    /// For read-only workloads, the answer of each read statement, checked
    /// against the reference evaluation once after set-up.
    expected: Vec<Option<Relation>>,
    writes: Option<Writes>,
    step: u64,
    reads_done: u64,
}

impl Workload {
    /// Builds the database, loads the tables, and runs every read statement
    /// once so plans are cached and statistics built before timing starts.
    pub fn build(kind: Kind, seed: u64) -> Result<Workload, String> {
        let (db, reads) = match kind {
            Kind::Analytic => (analytic_db(seed)?, ANALYTIC_READS),
            Kind::Nested | Kind::Mixed => (small_db(seed)?, SMALL_READS),
        };
        let session = db.session();
        let mut expected = Vec::with_capacity(reads.len());
        for sql in reads {
            let out = session.query(*sql).run().map_err(|e| format!("warm-up {sql}: {e}"))?;
            expected.push(Some(out.answer));
        }
        let writes = (kind == Kind::Mixed).then(|| Writes::new(seed));
        Ok(Workload { kind, _db: db, session, reads, expected, writes, step: 0, reads_done: 0 })
    }

    pub fn read_sql(&self, slot: usize) -> &'static str {
        self.reads[slot]
    }

    /// The reference evaluation of a read statement. The naive evaluator is
    /// the semantics, but it re-runs each nested block per outer tuple with
    /// quadratic duplicate elimination, far too slow for the analytic
    /// relations; those are checked against the block nested-loop method
    /// (the paper's baseline), which evaluates every pair without sorting or
    /// merge windows.
    fn reference(&self, slot: usize) -> Result<Relation, EngineError> {
        let strategy = match self.kind {
            Kind::Analytic => Strategy::NestedLoop,
            Kind::Nested | Kind::Mixed => Strategy::Naive,
        };
        self.session.query(self.reads[slot]).strategy(strategy).collect()
    }

    /// Checks every warm-up answer against the reference evaluation.
    /// Read-only workloads then compare each measured answer with the
    /// checked one.
    pub fn check_reference(&mut self) -> Result<(), String> {
        for (slot, got) in self.expected.iter().enumerate() {
            let sql = self.reads[slot];
            let reference = self.reference(slot).map_err(|e| format!("reference {sql}: {e}"))?;
            let got = got.as_ref().expect("set at build");
            if got.canonicalized() != reference.canonicalized() {
                return Err(format!("answer of {sql} differs from the reference evaluation"));
            }
        }
        if self.kind == Kind::Mixed {
            // Answers change with every write; reads are checked live.
            self.expected.iter_mut().for_each(|e| *e = None);
        }
        Ok(())
    }

    /// The next statement of the script.
    pub fn next_stmt(&mut self) -> Stmt {
        self.step += 1;
        if let Some(w) = &mut self.writes {
            if self.step.is_multiple_of(WRITE_EVERY) {
                return Stmt::Write { sql: w.next() };
            }
        }
        let slot = (self.reads_done % self.reads.len() as u64) as usize;
        self.reads_done += 1;
        Stmt::Read { slot }
    }

    /// Runs a read statement through the public query path.
    pub fn run_read(&self, slot: usize) -> Result<QueryOutcome, EngineError> {
        self.session.query(self.reads[slot]).run()
    }

    /// Runs a DML statement.
    pub fn run_write(&self, sql: &str) -> Result<StatementResult, EngineError> {
        self.session.execute(sql)
    }

    /// Whether the answer of the read just issued is correct: equal to the
    /// checked reference, or, when writes change the data, equal to the
    /// naive evaluator's answer now (every [`MIXED_CHECK_EVERY`]-th read).
    pub fn read_is_correct(&self, slot: usize, answer: &Relation) -> bool {
        match &self.expected[slot] {
            Some(expected) => {
                answer == expected || answer.canonicalized() == expected.canonicalized()
            }
            None => {
                !(self.reads_done - 1).is_multiple_of(MIXED_CHECK_EVERY)
                    || self
                        .reference(slot)
                        .is_ok_and(|r| r.canonicalized() == answer.canonicalized())
            }
        }
    }
}

/// Whether a DML statement did what it was generated to do.
pub fn write_is_correct(result: &StatementResult) -> bool {
    matches!(result, StatementResult::Affected(1))
}

fn analytic_db(seed: u64) -> Result<Database, String> {
    let disk = SimDisk::with_default_page_size();
    let spec = WorkloadSpec {
        n_outer: ANALYTIC_TUPLES,
        n_inner: ANALYTIC_TUPLES,
        tuple_bytes: 128,
        fanout: 7,
        seed,
        ..Default::default()
    };
    let w = generate(&disk, spec).map_err(|e| format!("generate: {e}"))?;
    let mut catalog = Catalog::new();
    catalog.register(w.outer);
    catalog.register(w.inner);
    let mut db = Database::from_catalog(catalog, disk);
    let mut config = db.exec_config();
    config.buffer_pages = ANALYTIC_BUFFER_PAGES;
    config.sort_pages = ANALYTIC_BUFFER_PAGES;
    db.set_exec_config(config);
    Ok(db)
}

fn small_db(seed: u64) -> Result<Database, String> {
    let mut db = Database::with_paper_vocabulary();
    let mut rng = Rng::new(seed);
    for (name, n) in SMALL_TABLES {
        let schema = Schema::of(&[
            ("ID", AttrType::Number),
            ("X", AttrType::Number),
            ("V", AttrType::Number),
        ]);
        db.create_table(name, schema).map_err(|e| format!("create {name}: {e}"))?;
        db.load(name, small_rows(&mut rng, n)).map_err(|e| format!("load {name}: {e}"))?;
    }
    Ok(db)
}
