//! End-to-end pipeline property tests: for random safe formulas, the
//! compiled algebra expression computes exactly the brute-force answer
//! (Thms. 8.4 + 9.4 + 9.5 composed), stage by stage and end to end; the
//! algebraic simplifier and the Dom baseline agree as well.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_allowed_formula, random_formula, GenConfig};
use rcsafe::formula::vars::{free_vars, rectified, FreshVars};
use rcsafe::safety::corpus::random_db;
use rcsafe::safety::dom_baseline::{eval_brute_force, eval_dom};
use rcsafe::safety::pipeline::{compile_with, CompileOptions};
use rcsafe::EvalCtx;
use rcsafe::{is_allowed, is_evaluable, is_ranf, Formula, Var};

fn allowed_sample(seed: u64) -> Formula {
    let cfg = GenConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    rectified(&random_allowed_formula(
        &cfg,
        &[Var::new("x"), Var::new("y")],
        &mut rng,
        3,
    ))
}

/// An evaluable (often non-allowed) sample: allowed formulas walked through
/// random conservative transformations.
fn evaluable_sample(seed: u64) -> Formula {
    use rand::seq::SliceRandom;
    use rcsafe::formula::transform::{applicable_rewrites, apply_at, CONSERVATIVE_RULES};
    let mut f = allowed_sample(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut fresh = FreshVars::for_formula(&f);
    for _ in 0..5 {
        let apps = applicable_rewrites(&f, CONSERVATIVE_RULES);
        if apps.is_empty() {
            break;
        }
        let (path, rw) = apps.choose(&mut rng).unwrap().clone();
        if let Some(g) = apply_at(rw, &f, &path, &mut fresh) {
            if g.node_count() < 150 {
                f = g;
            }
        }
    }
    rectified(&f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Compiled answers equal brute-force active-domain answers for
    /// allowed formulas (which are domain independent, so active-domain
    /// evaluation is THE answer).
    #[test]
    fn compiled_matches_oracle_on_allowed(seed in 0u64..4_000) {
        let f = allowed_sample(seed);
        prop_assume!(is_allowed(&f));
        prop_assume!(f.node_count() <= 60);
        let c = compile_with(&f, CompileOptions::default()).expect("allowed formulas compile");
        prop_assert!(is_ranf(&c.ranf_form), "not RANF: {}", c.ranf_form);
        for trial in 0..3u64 {
            let db = random_db(&f, seed * 7 + trial);
            let ours = c.run(&db, &mut EvalCtx::default()).expect("evaluates");
            let oracle = eval_brute_force(&f, &db);
            prop_assert_eq!(&ours, &oracle, "seed {} trial {}: {}", seed, trial, &f);
        }
    }

    /// The full pipeline (genify included) matches the oracle on evaluable
    /// formulas.
    #[test]
    fn compiled_matches_oracle_on_evaluable(seed in 0u64..4_000) {
        let f = evaluable_sample(seed);
        prop_assume!(is_evaluable(&f));
        prop_assume!(f.node_count() <= 80);
        let c = match compile_with(&f, CompileOptions::default()) {
            Ok(c) => c,
            Err(e) => return Err(TestCaseError::fail(format!("{f}: {e}"))),
        };
        for trial in 0..2u64 {
            let db = random_db(&f, seed * 13 + trial);
            let ours = c.run(&db, &mut EvalCtx::default()).expect("evaluates");
            let oracle = eval_brute_force(&f, &db);
            prop_assert_eq!(&ours, &oracle, "seed {} trial {}: {}", seed, trial, &f);
        }
    }

    /// The algebraic simplifier does not change answers.
    #[test]
    fn simplifier_preserves_answers(seed in 0u64..4_000) {
        let f = allowed_sample(seed);
        prop_assume!(is_allowed(&f) && f.node_count() <= 60);
        let raw = compile_with(&f, CompileOptions { optimize: false, ..CompileOptions::default() })
            .expect("compiles");
        let opt = compile_with(&f, CompileOptions { optimize: true, ..CompileOptions::default() })
            .expect("compiles");
        let db = random_db(&f, seed + 1);
        prop_assert_eq!(
            raw.run(&db, &mut EvalCtx::default()).expect("raw"),
            opt.run(&db, &mut EvalCtx::default()).expect("opt"),
            "simplifier changed answers for {}", &f
        );
    }

    /// The Dom-relation baseline agrees with the pipeline on evaluable
    /// (hence domain independent) queries.
    #[test]
    fn dom_baseline_agrees(seed in 0u64..4_000) {
        let f = allowed_sample(seed);
        prop_assume!(is_allowed(&f) && f.node_count() <= 50);
        let c = compile_with(&f, CompileOptions::default()).expect("compiles");
        let db = random_db(&f, seed + 2);
        let dom = eval_dom(&f, &db).expect("dom eval");
        let ours = c.run(&db, &mut EvalCtx::default()).expect("ours");
        prop_assert_eq!(ours, dom, "{}", &f);
    }

    /// Unsafe random formulas never slip through: if compile succeeds, the
    /// formula really is definite on sampled interpretations.
    #[test]
    fn no_unsafe_formula_compiles(seed in 0u64..4_000) {
        use rcsafe::safety::domind::{empirically_definite, DefiniteTest};
        let cfg = GenConfig { max_depth: 3, ..GenConfig::default() };
        let f = rectified(&random_formula(&cfg, &mut StdRng::seed_from_u64(seed)));
        prop_assume!(f.node_count() <= 40);
        if compile_with(&f, CompileOptions::default()).is_ok() {
            let verdict = empirically_definite(&f, &DefiniteTest {
                trials: 8,
                ..DefiniteTest::default()
            });
            prop_assert!(
                verdict.is_definite(),
                "compiled formula is not definite: {}", &f
            );
        }
    }
}

/// Equality-heavy end-to-end check: wide-sense formulas compile through
/// the reduction and match the oracle.
#[test]
fn wide_sense_pipeline_matches_oracle() {
    for (i, s) in [
        "exists z. (P(x, z) & (x = y | Q(x, y, z)) & !(z = y | R(y, z)))",
        "Q(y, y) & (x = y | P(x))",
        "exists x. (x = 3 & P(x, y))",
    ]
    .iter()
    .enumerate()
    {
        let f = rcsafe::parse(s).unwrap();
        let c = compile_with(&f, CompileOptions::default()).expect("wide-sense formulas compile");
        for trial in 0..4u64 {
            let db = random_db(&f, i as u64 * 100 + trial);
            let ours = c.run(&db, &mut EvalCtx::default()).expect("evaluates");
            let oracle = eval_brute_force(&f, &db);
            assert_eq!(ours, oracle, "{s}");
        }
    }
}

/// The answer's column order always matches the formula's free-variable
/// order, whatever the internal column shuffling did.
#[test]
fn column_order_is_stable() {
    for s in [
        "Q(y, x) & P(x)",
        "P(x) & Q(y, x)",
        "exists w. S(z, w, a) & P(a)",
    ] {
        let f = rcsafe::parse(s).unwrap();
        let c = compile_with(&f, CompileOptions::default()).unwrap();
        assert_eq!(c.columns, free_vars(&f), "{s}");
        assert_eq!(c.expr.cols(), free_vars(&f), "{s}");
    }
}
