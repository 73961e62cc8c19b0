//! E-PERF3 (Criterion form): transformation cost — `genify` (Alg. 8.1),
//! `ranf` (Alg. 9.1), translation (Sec. 9.3), and the composed pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rc_bench::{allowed_formula_sized, division_query, negation_query};
use rc_formula::parse;
use rc_safety::pipeline::{compile_with, CompileOptions};
use rc_safety::{genify, ranf, translate};

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform");
    group.sample_size(15);
    for size in [20usize, 60, 180] {
        // Distribution is exponential in the worst case; scan seeds for a
        // formula of this size that stays inside the RANF budget so the
        // bench measures typical (not pathological) inputs.
        let f = (0..64u64)
            .map(|salt| allowed_formula_sized(size, 0xBEEF + size as u64 + salt))
            .find(|f| compile_with(f, CompileOptions::default()).is_ok())
            .expect("some formula of this size normalizes");
        group.bench_with_input(BenchmarkId::new("genify", size), &f, |b, f| {
            b.iter(|| genify(std::hint::black_box(f)).expect("allowed genifies"))
        });
        let g = genify(&f).unwrap();
        group.bench_with_input(BenchmarkId::new("ranf", size), &g, |b, g| {
            b.iter(|| ranf(std::hint::black_box(g)).expect("allowed normalizes"))
        });
        let r = ranf(&g).unwrap();
        group.bench_with_input(BenchmarkId::new("translate", size), &r, |b, r| {
            b.iter(|| translate(std::hint::black_box(r)).expect("RANF translates"))
        });
        group.bench_with_input(BenchmarkId::new("compile", size), &f, |b, f| {
            b.iter(|| {
                compile_with(std::hint::black_box(f), CompileOptions::default()).expect("compiles")
            })
        });
    }
    group.finish();
}

fn bench_paper_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform/paper-queries");
    group.sample_size(30);
    for (name, f) in [
        ("division", division_query()),
        ("negation", negation_query()),
        (
            "supplier-all-parts",
            parse("exists y. forall x. (!P(x) | Q(y, x))").unwrap(),
        ),
        (
            "fig6-equality",
            parse("exists z. (Q(x, z) & (x = y | S(x, y, z)) & !(z = y | R(y, z)))").unwrap(),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| compile_with(std::hint::black_box(&f), CompileOptions::default()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stages, bench_paper_queries);
criterion_main!(benches);
