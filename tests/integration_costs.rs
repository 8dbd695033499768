//! Cost-behaviour integration tests on generated workloads: the asymptotic
//! claims of Sections 3–9, verified through the I/O counters and pair
//! counters of the simulated substrate.

use fuzzy_db::{Database, Strategy};
use fuzzy_engine::exec::ExecConfig;
use fuzzy_engine::OpKind;
use fuzzy_rel::Catalog;
use fuzzy_storage::SimDisk;
use fuzzy_workload::{generate, WorkloadSpec};

fn workload_db(n: usize, fanout: usize, buffer_pages: usize) -> Database {
    let disk = SimDisk::with_default_page_size();
    let w = generate(
        &disk,
        WorkloadSpec { n_outer: n, n_inner: n, fanout, seed: 9, ..Default::default() },
    )
    .unwrap();
    let mut catalog = Catalog::new();
    catalog.register(w.outer);
    catalog.register(w.inner);
    disk.reset_io();
    let mut db = Database::from_catalog(catalog, disk);
    db.set_exec_config(ExecConfig { buffer_pages, sort_pages: buffer_pages, ..Default::default() });
    db
}

const TYPE_J: &str = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.ID <> R.ID)";

#[test]
fn nested_loop_examines_the_full_cross_product() {
    let db = workload_db(600, 7, 32);
    let nl = db.query(TYPE_J).strategy(Strategy::NestedLoop).run().unwrap();
    assert_eq!(nl.metrics.totals().pairs_examined, 600 * 600);
}

#[test]
fn merge_join_examines_only_windows() {
    let db = workload_db(600, 7, 32);
    let mj = db.query(TYPE_J).strategy(Strategy::Unnest).run().unwrap();
    // Window size ≈ fan-out, so pairs ≈ n × C, far below n².
    assert!(
        mj.metrics.totals().pairs_examined < 600 * 60,
        "pairs {}",
        mj.metrics.totals().pairs_examined
    );
    assert!(
        mj.metrics.totals().pairs_examined >= 600,
        "pairs {}",
        mj.metrics.totals().pairs_examined
    );
    // And the answers agree.
    let nl = db.query(TYPE_J).strategy(Strategy::NestedLoop).run().unwrap();
    assert_eq!(mj.answer.canonicalized(), nl.answer.canonicalized());
}

#[test]
fn nested_loop_io_follows_block_formula() {
    // I/O = b_R + ceil(b_R / (M − 1)) × b_S (Section 9's allocation).
    let db = workload_db(4000, 4, 8);
    let b = db.catalog().table("R").unwrap().num_pages();
    let b_s = db.catalog().table("S").unwrap().num_pages();
    let nl = db.query(TYPE_J).strategy(Strategy::NestedLoop).run().unwrap();
    let expect = b + b.div_ceil(7) * b_s;
    let got = nl.measurement.io.reads;
    assert!(
        got >= expect && got <= expect + 4,
        "reads {got}, block formula {expect} (b_R={b}, b_S={b_s})"
    );
}

#[test]
fn merge_join_io_is_near_linear() {
    // Sort (two passes) + one join scan: a small constant times the base
    // pages, regardless of fan-out.
    let db = workload_db(4000, 4, 64);
    let pages =
        db.catalog().table("R").unwrap().num_pages() + db.catalog().table("S").unwrap().num_pages();
    let mj = db.query(TYPE_J).strategy(Strategy::Unnest).run().unwrap();
    let total_io = mj.measurement.io.total();
    assert!(total_io <= pages * 8, "merge-join I/O {total_io} not linear in {pages} base pages");
}

#[test]
fn merge_join_io_constant_in_fanout() {
    // Fig. 3's headline: the number of I/Os stays the same as C grows; only
    // CPU (pair evaluations) rises.
    let mut ios = Vec::new();
    let mut pairs = Vec::new();
    for fanout in [1usize, 16, 64] {
        let db = workload_db(2000, fanout, 64);
        let mj = db.query(TYPE_J).strategy(Strategy::Unnest).run().unwrap();
        ios.push(mj.measurement.io.total());
        pairs.push(mj.metrics.totals().pairs_examined);
    }
    let spread = *ios.iter().max().unwrap() as f64 / *ios.iter().min().unwrap() as f64;
    assert!(spread < 1.2, "I/O should be ~flat across fan-outs: {ios:?}");
    assert!(pairs[2] > pairs[0] * 8, "pairs should grow with C: {pairs:?}");
}

#[test]
fn small_buffers_cause_more_nested_loop_io() {
    let db_small = workload_db(3000, 4, 4);
    let db_big = workload_db(3000, 4, 128);
    let small = db_small.query(TYPE_J).strategy(Strategy::NestedLoop).run().unwrap();
    let big = db_big.query(TYPE_J).strategy(Strategy::NestedLoop).run().unwrap();
    assert!(
        small.measurement.io.reads > big.measurement.io.reads * 3,
        "small-buffer NL reads {} vs big-buffer {}",
        small.measurement.io.reads,
        big.measurement.io.reads
    );
}

#[test]
fn sort_dominates_merge_join_io_as_input_grows() {
    // Table 3's trend: the sort share of the merge-join grows with input.
    let small = workload_db(1000, 7, 16);
    let large = workload_db(8000, 7, 16);
    let s = small.query(TYPE_J).strategy(Strategy::Unnest).run().unwrap();
    let l = large.query(TYPE_J).strategy(Strategy::Unnest).run().unwrap();
    let share = |o: &fuzzy_db::QueryOutcome| {
        let sort_io: u64 = o
            .metrics
            .ops()
            .iter()
            .filter(|n| n.kind == OpKind::Sort)
            .map(|n| n.metrics.page_reads + n.metrics.page_writes)
            .sum();
        sort_io as f64 / o.measurement.io.total().max(1) as f64
    };
    assert!(
        share(&l) >= share(&s) - 0.02,
        "sort share should not shrink: small {:.2} large {:.2}",
        share(&s),
        share(&l)
    );
}

#[test]
fn answers_identical_across_buffer_sizes() {
    // Buffer budgets change costs, never answers.
    let reference = workload_db(1500, 7, 128)
        .query(TYPE_J)
        .strategy(Strategy::Unnest)
        .run()
        .unwrap()
        .answer
        .canonicalized();
    for pages in [4usize, 16, 64] {
        let db = workload_db(1500, 7, pages);
        let out = db.query(TYPE_J).strategy(Strategy::Unnest).run().unwrap();
        assert_eq!(out.answer.canonicalized(), reference, "buffer {pages} changed the answer");
    }
}

#[test]
fn merge_windows_track_the_fanout() {
    // Section 3 assumes the buffer holds one outer page plus the pages of
    // the largest Rng(r); with fan-out C and tight intervals the largest
    // window stays within a small multiple of C.
    for fanout in [2usize, 8, 32] {
        let db = workload_db(2000, fanout, 64);
        let mj = db.query(TYPE_J).strategy(Strategy::Unnest).run().unwrap();
        let w = mj.metrics.totals().max_window;
        assert!(
            w as usize >= fanout / 2 && w as usize <= fanout * 6 + 8,
            "fanout {fanout}: max window {w}"
        );
    }
}

#[test]
fn wide_tuples_flow_through_joins() {
    // Tuples with large text payloads spill across many pages; joins and
    // sorts must still work (and answers must match the naive reference).
    use fuzzy_db::core::{Trapezoid, Value};
    use fuzzy_rel::{AttrType, Schema, Tuple};
    let disk = SimDisk::with_default_page_size();
    let mut catalog = Catalog::new();
    for name in ["R", "S"] {
        let t = fuzzy_rel::StoredTable::create_padded(
            &disk,
            name,
            Schema::of(&[
                ("ID", AttrType::Number),
                ("X", AttrType::Number),
                ("BLOB", AttrType::Text),
            ]),
            2048,
        );
        t.load((0..120).map(|i| {
            Tuple::full(vec![
                Value::number(i as f64),
                Value::fuzzy(Trapezoid::about((i % 20) as f64 * 10.0, 3.0).unwrap()),
                Value::text("x".repeat(1500)),
            ])
        }))
        .unwrap();
        catalog.register(t);
    }
    let db = Database::from_catalog(catalog, disk);
    let sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S)";
    let a = db.query(sql).strategy(Strategy::Unnest).run().unwrap();
    let b = db.query(sql).strategy(Strategy::Naive).run().unwrap();
    assert_eq!(a.answer.canonicalized(), b.answer.canonicalized());
    assert_eq!(a.answer.len(), 120);
}

#[test]
fn heavy_duplicate_values_in_aggregate_groups() {
    // Many tuples share identical fuzzy values: the JA grouping must dedup
    // them into the fuzzy set T(r) exactly once (COUNT counts distinct
    // values, not tuples).
    use fuzzy_db::core::{Trapezoid, Value};
    use fuzzy_rel::{AttrType, Schema, Tuple};
    let disk = SimDisk::with_default_page_size();
    let mut catalog = Catalog::new();
    let schema = || Schema::of(&[("U", AttrType::Number), ("Z", AttrType::Number)]);
    let r = fuzzy_rel::StoredTable::create(&disk, "R", schema());
    r.load(
        (0..10).map(|i| Tuple::full(vec![Value::number((i % 3) as f64), Value::number(i as f64)])),
    )
    .unwrap();
    catalog.register(r);
    let s = fuzzy_rel::StoredTable::create(&disk, "S", schema());
    // 30 tuples but only 2 distinct Z values per U.
    s.load((0..30).map(|i| {
        Tuple::full(vec![
            Value::number((i % 3) as f64),
            Value::fuzzy(Trapezoid::about(((i / 15) * 100) as f64, 5.0).unwrap()),
        ])
    }))
    .unwrap();
    catalog.register(s);
    let db = Database::from_catalog(catalog, disk);
    let sql = "SELECT R.Z FROM R WHERE 2 >= (SELECT COUNT(S.Z) FROM S WHERE S.U = R.U)";
    let a = db.query(sql).strategy(Strategy::Unnest).run().unwrap();
    let naive = db.query(sql).strategy(Strategy::Naive).run().unwrap();
    assert_eq!(a.answer.canonicalized(), naive.answer.canonicalized());
    // Every R tuple's group has exactly 2 distinct values: all pass.
    assert_eq!(a.answer.len(), 10);
}
