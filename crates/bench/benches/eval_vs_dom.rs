//! E-PERF1 (Criterion form): evaluating the paper's Dom-free plans vs the
//! Dom-relation baseline vs brute force, sweeping domain size with data
//! volume fixed.
//!
//! The headline shape: the Dom-free plan's cost tracks the data; the
//! baseline's cost tracks `|Dom|` (and `|Dom|^k` for the brute force), so
//! the gap widens as the domain grows — the paper's practical argument
//! (Sec. 3) in one chart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rc_bench::{bench_db, division_query, negation_query};
use rc_formula::vars::free_vars;
use rc_relalg::{EvalCtx, RaExpr};
use rc_safety::dom_baseline::{augment_with_dom, eval_brute_force, translate_dom};
use rc_safety::pipeline::{compile_with, CompileOptions};
use rc_safety::tuplewise::eval_tuplewise;

fn bench_eval(c: &mut Criterion) {
    for (qname, f) in [
        ("negation", negation_query()),
        ("division", division_query()),
    ] {
        let compiled = compile_with(&f, CompileOptions::default()).expect("compiles");
        let dom_expr = {
            let e = translate_dom(&f);
            let cols = free_vars(&f);
            if e.cols() == cols {
                e
            } else {
                RaExpr::project(e, cols)
            }
        };
        let mut group = c.benchmark_group(format!("eval/{qname}"));
        group.sample_size(12);
        for domain_size in [20i64, 80, 320] {
            let db = bench_db(domain_size, 50, 0xD0E5 + domain_size as u64);
            let augmented = augment_with_dom(&db, &f);
            group.throughput(Throughput::Elements(domain_size as u64));
            group.bench_with_input(
                BenchmarkId::new("ranf-pipeline", domain_size),
                &db,
                |b, db| {
                    b.iter(|| {
                        compiled
                            .run(std::hint::black_box(db), &mut EvalCtx::default())
                            .unwrap()
                    })
                },
            );
            group.bench_with_input(BenchmarkId::new("tuplewise", domain_size), &db, |b, db| {
                b.iter(|| eval_tuplewise(&compiled.ranf_form, std::hint::black_box(db)).unwrap())
            });
            group.bench_with_input(
                BenchmarkId::new("dom-translation", domain_size),
                &augmented,
                |b, adb| {
                    b.iter(|| {
                        rc_relalg::eval(
                            std::hint::black_box(&dom_expr),
                            adb,
                            &mut EvalCtx::default(),
                        )
                        .unwrap()
                    })
                },
            );
            // Brute force explodes quickly; keep it to the smaller domains.
            if domain_size <= 80 {
                group.bench_with_input(
                    BenchmarkId::new("brute-force", domain_size),
                    &db,
                    |b, db| b.iter(|| eval_brute_force(&f, std::hint::black_box(db))),
                );
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
