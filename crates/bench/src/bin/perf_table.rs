//! Experiment E-PERF1 (quick, non-Criterion form): the Dom-free pipeline
//! vs the Dom-relation translation vs brute-force active-domain
//! evaluation, sweeping the domain size with the per-relation data held
//! fixed.
//!
//! The shape the paper implies: the Dom-based strategies do work
//! proportional to `|Dom|^k`, the translated plan's work tracks the data
//! actually touched. (Absolute times are machine-dependent; the tuple
//! counts are deterministic.)
//!
//! ```sh
//! cargo run --release -p rc-bench --bin perf_table
//! ```

use rc_bench::{bench_db, division_query, negation_query, Table};
use rc_formula::vars::free_vars;
use rc_relalg::{EvalCtx, RaExpr};
use rc_safety::dom_baseline::{augment_with_dom, eval_dom, translate_dom};
use rc_safety::pipeline::{compile_with, CompileOptions};
use rc_safety::tuplewise::eval_tuplewise;
use std::time::Instant;

fn main() {
    println!("=== E-PERF1: Dom-free pipeline vs Dom-relation baseline ===\n");
    for (name, f) in [
        ("negation  P(x) ∧ ¬∃y(Q(x,y) ∧ ¬R(y,x))", negation_query()),
        (
            "division  Q(x,x) ∧ ∀y(¬P(y) ∨ ∃z S(x,y,z))",
            division_query(),
        ),
    ] {
        println!("[{name}]");
        let compiled = compile_with(&f, CompileOptions::default()).expect("compiles");
        let mut t = Table::new(&[
            "|Dom|",
            "rows/rel",
            "answer",
            "ranf tuples",
            "dom tuples",
            "ranf µs",
            "tuplewise µs",
            "dom µs",
            "brute µs",
        ]);
        for domain_size in [20i64, 100, 400] {
            let rows = 50;
            let db = bench_db(domain_size, rows, 99 + domain_size as u64);

            let mut ranf_stats = EvalCtx::default();
            let t0 = Instant::now();
            let ours = compiled.run(&db, &mut ranf_stats).unwrap();
            let ranf_us = t0.elapsed().as_micros();

            // Dom-based algebra translation.
            let dom_expr = translate_dom(&f);
            let cols = free_vars(&f);
            let dom_expr = if dom_expr.cols() == cols {
                dom_expr
            } else {
                RaExpr::project(dom_expr, cols)
            };
            let augmented = augment_with_dom(&db, &f);
            let mut dom_stats = EvalCtx::default();
            let t1 = Instant::now();
            let dom_ans = rc_relalg::eval(&dom_expr, &augmented, &mut dom_stats).unwrap();
            let dom_us = t1.elapsed().as_micros();
            assert_eq!(ours, dom_ans, "Dom baseline disagrees");
            // Keep eval_dom linked in as the reference implementation.
            debug_assert_eq!(eval_dom(&f, &db).unwrap(), ours);

            // Prolog-style tuple-at-a-time evaluation of the RANF form
            // (the paper's *other* evaluation route).
            let t3 = Instant::now();
            let tw = eval_tuplewise(&compiled.ranf_form, &db).unwrap();
            let tw_us = t3.elapsed().as_micros();
            assert_eq!(tw.len(), ours.len(), "tuplewise disagrees");

            // Brute force (assignments over Dom^k).
            let t2 = Instant::now();
            let brute = rc_safety::dom_baseline::eval_brute_force(&f, &db);
            let brute_us = t2.elapsed().as_micros();
            assert_eq!(brute, ours, "brute force disagrees");

            t.row(vec![
                domain_size.to_string(),
                rows.to_string(),
                ours.len().to_string(),
                ranf_stats.stats.tuples_produced.to_string(),
                dom_stats.stats.tuples_produced.to_string(),
                ranf_us.to_string(),
                tw_us.to_string(),
                dom_us.to_string(),
                brute_us.to_string(),
            ]);
        }
        println!("{}", t.render());
    }
    println!(
        "Expected shape: 'ranf tuples' stays roughly flat as |Dom| grows (it tracks\n\
         the stored data); 'dom tuples' and the brute-force time grow with the domain\n\
         — the cost of materializing Dom that Sec. 3 sets out to avoid."
    );
}
