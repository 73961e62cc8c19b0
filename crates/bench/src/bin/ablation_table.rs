//! Ablation experiments for the design choices DESIGN.md calls out:
//!
//! 1. **Fig. 5 conjunction nondeterminism** (Sec. 8: "this choice
//!    represents an opportunity for optimization"): smallest-generator vs
//!    first-conjunct resolution — effect on genify/RANF/plan sizes and on
//!    evaluation work.
//! 2. **Algebraic simplifier on/off**: effect on plan size and evaluation
//!    work.
//!
//! ```sh
//! cargo run --release -p rc-bench --bin ablation_table
//! ```

use rand::seq::SliceRandom;
use rc_bench::{bench_db, rng, Table};
use rc_formula::generate::{random_allowed_formula, GenConfig};
use rc_formula::transform::{applicable_rewrites, apply_at, CONSERVATIVE_RULES};
use rc_formula::vars::{rectified, FreshVars};
use rc_formula::{Formula, Var};
use rc_relalg::EvalCtx;
use rc_safety::generator::ConjunctChoice;
use rc_safety::pipeline::{compile_with, CompileOptions};

/// Random evaluable formulas: allowed formulas walked through conservative
/// transformations, so genify has real work to do.
fn evaluable_sample(seed: u64) -> Formula {
    let cfg = GenConfig::default();
    let mut r = rng(seed);
    let mut f = rectified(&random_allowed_formula(&cfg, &[Var::new("x")], &mut r, 3));
    let mut fresh = FreshVars::for_formula(&f);
    for _ in 0..5 {
        let apps = applicable_rewrites(&f, CONSERVATIVE_RULES);
        if apps.is_empty() {
            break;
        }
        let (path, rw) = apps.choose(&mut r).unwrap().clone();
        if let Some(g) = apply_at(rw, &f, &path, &mut fresh) {
            if g.node_count() < 120 {
                f = g;
            }
        }
    }
    rectified(&f)
}

fn main() {
    println!("=== Ablation 1: generator choice (Fig. 5 nondeterminism) ===\n");
    let mut t = Table::new(&[
        "seed",
        "input",
        "allowed(S)",
        "allowed(F)",
        "ranf(S)",
        "ranf(F)",
        "plan(S)",
        "plan(F)",
        "tuples(S)",
        "tuples(F)",
    ]);
    let mut wins_smaller = 0;
    let mut total = 0;
    for seed in 0..200u64 {
        let f = evaluable_sample(seed);
        let opts_s = CompileOptions {
            generator_choice: ConjunctChoice::Smallest,
            ..CompileOptions::default()
        };
        let opts_f = CompileOptions {
            generator_choice: ConjunctChoice::First,
            ..CompileOptions::default()
        };
        let (Ok(cs), Ok(cf)) = (compile_with(&f, opts_s), compile_with(&f, opts_f)) else {
            continue;
        };
        total += 1;
        let mut db = bench_db(12, 25, seed);
        for (p, a) in f.predicates() {
            db.declare(p, a);
        }
        let mut ss = EvalCtx::default();
        let mut sf = EvalCtx::default();
        let rs = cs.run(&db, &mut ss).unwrap();
        let rf = cf.run(&db, &mut sf).unwrap();
        assert_eq!(rs, rf, "strategies must agree on answers (seed {seed})");
        if cs.expr.node_count() <= cf.expr.node_count() {
            wins_smaller += 1;
        }
        if seed < 10 {
            t.row(vec![
                seed.to_string(),
                f.node_count().to_string(),
                cs.allowed_form.node_count().to_string(),
                cf.allowed_form.node_count().to_string(),
                cs.ranf_form.node_count().to_string(),
                cf.ranf_form.node_count().to_string(),
                cs.expr.node_count().to_string(),
                cf.expr.node_count().to_string(),
                ss.stats.tuples_produced.to_string(),
                sf.stats.tuples_produced.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "smallest-generator plan ≤ first-conjunct plan in {wins_smaller}/{total} sampled \
         evaluable formulas\n(both always compute identical answers)\n"
    );

    println!("=== Ablation 2: algebraic simplifier ===\n");
    let mut t2 = Table::new(&[
        "seed",
        "plan raw",
        "plan simplified",
        "tuples raw",
        "tuples simplified",
    ]);
    let mut shrunk = 0;
    let mut total2 = 0;
    for seed in 0..200u64 {
        let f = evaluable_sample(seed.wrapping_add(10_000));
        let raw_opts = CompileOptions {
            optimize: false,
            ..CompileOptions::default()
        };
        let opt_opts = CompileOptions::default();
        let (Ok(craw), Ok(copt)) = (compile_with(&f, raw_opts), compile_with(&f, opt_opts)) else {
            continue;
        };
        total2 += 1;
        let mut db = bench_db(12, 25, seed ^ 0xF00D);
        for (p, a) in f.predicates() {
            db.declare(p, a);
        }
        let mut sraw = EvalCtx::default();
        let mut sopt = EvalCtx::default();
        let rraw = craw.run(&db, &mut sraw).unwrap();
        let ropt = copt.run(&db, &mut sopt).unwrap();
        assert_eq!(
            rraw, ropt,
            "simplifier must not change answers (seed {seed})"
        );
        if copt.expr.node_count() < craw.expr.node_count() {
            shrunk += 1;
        }
        if seed < 10 {
            t2.row(vec![
                seed.to_string(),
                craw.expr.node_count().to_string(),
                copt.expr.node_count().to_string(),
                sraw.stats.tuples_produced.to_string(),
                sopt.stats.tuples_produced.to_string(),
            ]);
        }
    }
    println!("{}", t2.render());
    println!("simplifier strictly shrank the plan in {shrunk}/{total2} sampled formulas");
}
