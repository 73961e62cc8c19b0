//! E-PERF3 (Criterion form): transformation cost — `genify` (Alg. 8.1),
//! `ranf` (Alg. 9.1), translation (Sec. 9.3), and the composed pipeline —
//! plus the cost planner (`rc_relalg::optimize`, the Sec. 9.3 clean-up
//! pass), which `compile_with` never runs because it has no database.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rc_bench::{allowed_formula_sized, bench_db, division_query, negation_query};
use rc_formula::parse;
use rc_relalg::{eval, harvest_actuals, optimize, Budget, Database, EvalCtx, RaExpr, Tracer};
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

/// The first `n` plans of the `cold_compile` benchmark's sized corpus
/// (formulas of 40–150 nodes whose plan stays within 600 nodes), as
/// translated and before any simplification — the planner's input.
fn sized_plans(n: usize) -> Vec<RaExpr> {
    let opts = || CompileOptions {
        optimize: false,
        budget: Budget::new().with_max_nodes(600),
        ..CompileOptions::default()
    };
    (0u64..)
        .map(|seed| allowed_formula_sized(40 + (seed * 37 % 111) as usize, seed))
        .filter_map(|f| compile_with(&f, opts()).ok())
        .map(|c| c.expr)
        .filter(|e| e.node_count() <= 600)
        .take(n)
        .collect()
}

/// The cost planner over sized-corpus plans against the corpus tables
/// (`bench_db(24, 60, 7)`): once with an empty feedback store, and once
/// after the actual cardinalities of every plan that evaluates were
/// harvested, as a traced server would have done.
fn bench_optimize(c: &mut Criterion) {
    let plans = sized_plans(32);
    let largest = plans
        .iter()
        .max_by_key(|e| e.node_count())
        .expect("corpus is not empty")
        .clone();
    let fresh = bench_db(24, 60, 7);
    let fed = bench_db(24, 60, 7);
    for e in &plans {
        let plan = optimize(e, &fed);
        let mut cx = EvalCtx::default().with_tracer(Tracer::on());
        // A few plans scan a wide `W*` relation the corpus tables lack.
        if eval(&plan, &fed, &mut cx).is_ok() {
            harvest_actuals(&plan, cx.tracer.finish().as_ref(), &fed);
        }
    }
    let mut group = c.benchmark_group("optimize");
    group.sample_size(15);
    let run = |plans: &[RaExpr], db: &Database| {
        plans
            .iter()
            .map(|e| optimize(std::hint::black_box(e), db).node_count())
            .sum::<usize>()
    };
    for (name, db) in [("corpus32", &fresh), ("corpus32-feedback", &fed)] {
        group.bench_with_input(BenchmarkId::new(name, plans.len()), &plans, |b, p| {
            b.iter(|| run(p, db))
        });
    }
    let one = std::slice::from_ref(&largest);
    group.bench_with_input(
        BenchmarkId::new("largest", largest.node_count()),
        one,
        |b, p| b.iter(|| run(p, &fresh)),
    );
    group.finish();
}

criterion_group!(benches, bench_stages, bench_paper_queries, bench_optimize);
criterion_main!(benches);
