//! Criterion micro-benchmarks of the fuzzy primitives the joins are built on:
//! possibility closed forms, interval-order comparisons, tuple codec, the
//! external sort (keyed like the engine's, with `OrderKey`), and the
//! answer's fuzzy-OR dedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fuzzy_core::interval_order::{self, OrderKey};
use fuzzy_core::{possibility, CmpOp, Degree, Trapezoid, Value};
use fuzzy_engine::{Engine, Strategy};
use fuzzy_rel::{AttrType, Catalog, Relation, Schema, StoredTable, Tuple};
use fuzzy_storage::{external_sort, HeapFile, SimDisk};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_trapezoids(n: usize, seed: u64) -> Vec<Trapezoid> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let a = rng.gen_range(0.0..1000.0);
            let w1 = rng.gen_range(0.0..5.0);
            let wc = rng.gen_range(0.0..5.0);
            let w2 = rng.gen_range(0.0..5.0);
            Trapezoid::new(a, a + w1, a + w1 + wc, a + w1 + wc + w2).unwrap()
        })
        .collect()
}

fn possibility_ops(c: &mut Criterion) {
    let xs = random_trapezoids(512, 1);
    let ys = random_trapezoids(512, 2);
    let mut group = c.benchmark_group("possibility");
    for op in [CmpOp::Eq, CmpOp::Le, CmpOp::Lt, CmpOp::Ne] {
        group.bench_with_input(BenchmarkId::from_parameter(op), &op, |b, &op| {
            b.iter(|| {
                let mut acc = 0.0;
                for (x, y) in xs.iter().zip(&ys) {
                    acc += possibility(black_box(x), op, black_box(y)).value();
                }
                acc
            })
        });
    }
    group.finish();
}

fn interval_order_cmp(c: &mut Criterion) {
    let vals: Vec<Value> = random_trapezoids(1024, 3).into_iter().map(Value::fuzzy).collect();
    c.bench_function("interval_order_sort_1024", |b| {
        b.iter(|| {
            let mut v = vals.clone();
            v.sort_by(interval_order::cmp_values);
            v
        })
    });
}

fn tuple_codec(c: &mut Criterion) {
    let tuples: Vec<Tuple> = random_trapezoids(256, 4)
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            Tuple::full(vec![Value::number(i as f64), Value::fuzzy(t), Value::text("payload")])
        })
        .collect();
    let encoded: Vec<Vec<u8>> = tuples.iter().map(|t| t.encode(128)).collect();
    c.bench_function("tuple_encode_128B", |b| {
        b.iter(|| tuples.iter().map(|t| t.encode(128).len()).sum::<usize>())
    });
    c.bench_function("tuple_decode_128B", |b| {
        b.iter(|| {
            encoded.iter().map(|bytes| Tuple::decode(bytes).unwrap().values.len()).sum::<usize>()
        })
    });
    c.bench_function("tuple_decode_value_at", |b| {
        b.iter(|| {
            encoded
                .iter()
                .filter(|bytes| Tuple::decode_value_at(bytes, 1).unwrap().interval().is_some())
                .count()
        })
    });
}

fn external_sort_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("external_sort");
    group.sample_size(10);
    for n in [2000usize, 8000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let disk = SimDisk::with_default_page_size();
                let file = HeapFile::create(&disk);
                let tuples: Vec<Vec<u8>> = random_trapezoids(n, 5)
                    .into_iter()
                    .map(|t| Tuple::full(vec![Value::fuzzy(t)]).encode(64))
                    .collect();
                file.load(tuples.iter()).unwrap();
                let (sorted, _) = external_sort(
                    &disk,
                    &file,
                    32,
                    |r| Tuple::decode_value_at(r, 0).map(|v| OrderKey::at(&v, Degree::ZERO)),
                    OrderKey::cmp_key,
                )
                .unwrap();
                sorted.num_records()
            })
        });
    }
    group.finish();
}

/// The output stage's fuzzy-OR dedup: 28k answer rows over 4k distinct
/// (fuzzy, text) rows. Each iteration clones the input rows, since the dedup
/// consumes them.
fn answer_dedup(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let keys: Vec<Vec<Value>> = random_trapezoids(4000, 7)
        .into_iter()
        .enumerate()
        .map(|(i, t)| vec![Value::fuzzy(t), Value::text(format!("name{}", i % 97))])
        .collect();
    let rows: Vec<(Vec<Value>, Degree)> = (0..28_000)
        .map(|_| {
            let k = &keys[rng.gen_range(0..keys.len())];
            (k.clone(), Degree::new(rng.gen_range(0.01..1.0)).unwrap())
        })
        .collect();
    let schema = Schema::of(&[("X", AttrType::Number), ("NAME", AttrType::Text)]);
    c.bench_function("answer_dedup_28k_rows_4k_distinct", |b| {
        b.iter(|| Relation::from_dedup_rows(schema.clone(), rows.clone()).len())
    });
}

/// The naive evaluator on a shape outside the unnesting catalogue: two
/// uncorrelated IN sub-queries, each re-run once per outer tuple. R, S and T
/// hold 64, 48 and 32 rows of (ID, X, V); X is crisp or triangular around
/// 12 grid points and V one of 6 values.
fn naive_fallback(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let disk = SimDisk::with_default_page_size();
    let mut catalog = Catalog::new();
    for (name, n) in [("R", 64usize), ("S", 48), ("T", 32)] {
        let schema = Schema::of(&[
            ("ID", AttrType::Number),
            ("X", AttrType::Number),
            ("V", AttrType::Number),
        ]);
        let table = StoredTable::create(&disk, name, schema);
        let mut w = table.file().bulk_writer();
        for i in 0..n {
            let centre = f64::from(rng.gen_range(0..12u32)) * 10.0;
            let x = if rng.gen_range(0..2u32) == 0 {
                Value::number(centre)
            } else {
                let half = f64::from(rng.gen_range(2..7u32));
                Value::fuzzy(Trapezoid::triangular(centre - half, centre, centre + half).unwrap())
            };
            let v = Value::number(100.0 + 5.0 * f64::from(rng.gen_range(0..6u32)));
            w.append(&Tuple::full(vec![Value::number(i as f64), x, v]).encode(0)).unwrap();
        }
        w.finish().unwrap();
        catalog.register(table);
    }
    let engine = Engine::over(catalog.into(), &disk);
    let q = fuzzy_sql::parse(
        "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S) AND R.V IN (SELECT T.V FROM T)",
    )
    .unwrap();
    c.bench_function("naive_fallback_two_in", |b| {
        b.iter(|| engine.run(&q, Strategy::Naive).unwrap().answer.len())
    });
}

criterion_group!(
    benches,
    possibility_ops,
    interval_order_cmp,
    tuple_codec,
    external_sort_bench,
    answer_dedup,
    naive_fallback
);
criterion_main!(benches);
