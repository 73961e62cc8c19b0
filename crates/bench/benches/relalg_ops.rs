//! E-PERF4: substrate micro-benchmarks — hash join, the `diff` anti-join
//! primitive (Def. 9.3), union and projection, at several cardinalities.
//!
//! The paper recommends implementing `diff` "as a primitive in its own
//! right, using techniques similar to those used for efficient joins";
//! this bench shows it indeed costs about the same as a join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::Rng;
use rc_bench::rng;
use rc_formula::{Term, Value, Var};
use rc_relalg::{eval, Database, EvalCtx, RaExpr, Relation};

fn make_db(rows: usize, domain: i64, seed: u64) -> Database {
    let mut r = rng(seed);
    let mut a = Relation::new(2);
    let mut b = Relation::new(2);
    for _ in 0..rows {
        a.insert(
            vec![
                Value::int(r.gen_range(0..domain)),
                Value::int(r.gen_range(0..domain)),
            ]
            .into_boxed_slice(),
        );
        b.insert(
            vec![
                Value::int(r.gen_range(0..domain)),
                Value::int(r.gen_range(0..domain)),
            ]
            .into_boxed_slice(),
        );
    }
    let mut db = Database::new();
    db.insert_relation("A", a);
    db.insert_relation("B", b);
    db
}

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("relalg");
    group.sample_size(15);
    for rows in [1_000usize, 10_000, 50_000] {
        let db = make_db(rows, (rows as i64 / 4).max(4), 7);
        group.throughput(Throughput::Elements(rows as u64));

        let join = RaExpr::join(
            RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]),
        );
        group.bench_with_input(BenchmarkId::new("join", rows), &db, |b, db| {
            b.iter(|| eval(std::hint::black_box(&join), db, &mut EvalCtx::default()).unwrap())
        });

        let diff = RaExpr::diff(
            RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("B", vec![Term::var("x"), Term::var("y")]),
        );
        group.bench_with_input(BenchmarkId::new("diff", rows), &db, |b, db| {
            b.iter(|| eval(std::hint::black_box(&diff), db, &mut EvalCtx::default()).unwrap())
        });

        // Generalized diff on a column subset (the anti-join case).
        let diff_subset = RaExpr::diff(
            RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]),
            RaExpr::project(
                RaExpr::scan("B", vec![Term::var("y"), Term::var("w")]),
                vec![Var::new("y")],
            ),
        );
        group.bench_with_input(BenchmarkId::new("diff-subset", rows), &db, |b, db| {
            b.iter(|| {
                eval(
                    std::hint::black_box(&diff_subset),
                    db,
                    &mut EvalCtx::default(),
                )
                .unwrap()
            })
        });

        let union = RaExpr::union(
            RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("B", vec![Term::var("x"), Term::var("y")]),
        );
        group.bench_with_input(BenchmarkId::new("union", rows), &db, |b, db| {
            b.iter(|| eval(std::hint::black_box(&union), db, &mut EvalCtx::default()).unwrap())
        });

        let project = RaExpr::project(
            RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]),
            vec![Var::new("y")],
        );
        group.bench_with_input(BenchmarkId::new("project", rows), &db, |b, db| {
            b.iter(|| eval(std::hint::black_box(&project), db, &mut EvalCtx::default()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ops);
criterion_main!(benches);
