//! Differential suite for the cost-based planner: the optimized plan must
//! be *observationally identical* to the heuristic plan — same relation,
//! same answer-column order, sane [`EvalStats`] — across the paper corpus
//! and generated allowed formulas, including under forced partitioning and
//! budget cancellation. Plus the optimizer-idempotence properties: the
//! rewrite simplifier is a fixpoint after one pass, and re-running the
//! cost-based planner on its own output never changes the plan hash.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_allowed_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::relalg::{eval, optimize, plan_hash, simplify, EvalCtx, PlanCache, RaExpr, SelPred};
use rcsafe::safety::corpus::{corpus, formula_of, random_db};
use rcsafe::safety::pipeline::{
    compile_and_eval_cached, compile_for, compile_with, CompileOptions, Compiled,
};
use rcsafe::{Budget, Database, Term, Value, Var};

/// Compile `f` both ways: heuristic-only (no database statistics) and
/// cost-based against `db`.
fn both_plans(f: &rcsafe::Formula, db: &Database) -> Option<(Compiled, Compiled)> {
    let heuristic = compile_with(
        f,
        CompileOptions {
            optimize: true,
            ..CompileOptions::default()
        },
    )
    .ok()?;
    let optimized = compile_for(
        f,
        CompileOptions {
            optimize: true,
            ..CompileOptions::default()
        },
        db,
    )
    .ok()?;
    Some((heuristic, optimized))
}

/// Both compiled forms must expose the same answer columns (the planner
/// restores the projection it reorders under) and produce the identical
/// relation, with evaluator stats that satisfy the structural invariants.
fn assert_equivalent(heuristic: &Compiled, optimized: &Compiled, db: &Database, ctx: &str) {
    assert_eq!(
        heuristic.columns, optimized.columns,
        "{ctx}: planner changed the answer columns"
    );
    let mut hs = EvalCtx::default();
    let mut os = EvalCtx::default();
    let h = eval(&heuristic.expr, db, &mut hs).expect("heuristic plan evaluates");
    let o = eval(&optimized.expr, db, &mut os).expect("optimized plan evaluates");
    assert_eq!(
        h, o,
        "{ctx}: optimized plan diverged\nheuristic: {}\noptimized: {}",
        heuristic.expr, optimized.expr
    );
    for (name, s) in [("heuristic", &hs.stats), ("optimized", &os.stats)] {
        assert!(s.operators > 0, "{ctx}: {name} evaluated no operators");
        assert!(
            s.max_intermediate as u64 <= s.tuples_produced,
            "{ctx}: {name} max intermediate exceeds total tuples"
        );
        assert!(
            s.budget_checks >= s.operators,
            "{ctx}: {name} skipped a budget checkpoint"
        );
    }
}

/// Every wide-sense corpus entry: the cost-based plan agrees with the
/// heuristic plan on empty and random databases.
#[test]
fn corpus_optimized_plans_match_heuristic_plans() {
    for entry in corpus().iter().filter(|e| e.wide_sense) {
        let f = formula_of(entry);
        for seed in [0u64, 1, 2, 7] {
            let db = random_db(&f, seed);
            let Some((heuristic, optimized)) = both_plans(&f, &db) else {
                continue;
            };
            assert_equivalent(
                &heuristic,
                &optimized,
                &db,
                &format!("{} seed {seed}", entry.id),
            );
        }
    }
}

/// Forced partitioning must not interact with the planner: for every
/// corpus entry and partition count 1..=4 the optimized plan still equals
/// the heuristic one.
#[test]
fn corpus_optimized_plans_survive_forced_partitioning() {
    for entry in corpus().iter().filter(|e| e.wide_sense) {
        let f = formula_of(entry);
        let db = random_db(&f, 7);
        let Some((heuristic, optimized)) = both_plans(&f, &db) else {
            continue;
        };
        let baseline =
            eval(&heuristic.expr, &db, &mut EvalCtx::default()).expect("heuristic plan evaluates");
        for parts in 1..=4usize {
            let budget = Budget::new().with_partitions(parts);
            let out = eval(&optimized.expr, &db, &mut EvalCtx::new(&budget))
                .expect("optimized plan evaluates under forced partitioning");
            assert_eq!(
                out, baseline,
                "{}: optimized plan diverged at {parts} partition(s)",
                entry.id
            );
        }
    }
}

/// A budget cancelled before evaluation starts stops the optimized plan
/// exactly like the heuristic one: both error, neither returns a partial
/// relation.
#[test]
fn corpus_optimized_plans_honor_cancelled_budgets() {
    for entry in corpus().iter().filter(|e| e.wide_sense) {
        let f = formula_of(entry);
        let db = random_db(&f, 7);
        let Some((heuristic, optimized)) = both_plans(&f, &db) else {
            continue;
        };
        let budget = Budget::new();
        budget.cancel_handle().cancel();
        for (name, compiled) in [("heuristic", &heuristic), ("optimized", &optimized)] {
            let out = eval(&compiled.expr, &db, &mut EvalCtx::new(&budget));
            assert!(
                out.is_err(),
                "{}: {name} plan ignored a pre-cancelled budget",
                entry.id
            );
        }
    }
}

/// A random plan mixing every operator, for the idempotence properties.
/// Invariant: every subplan has columns exactly `[x, y]`, so unions stay
/// arity-aligned, selections always see their column, and diff right
/// sides are the narrower/equal operands the evaluator accepts.
fn random_plan(rng: &mut StdRng, depth: usize) -> RaExpr {
    let scan_a = || RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]);
    let scan_b = || RaExpr::scan("B", vec![Term::var("x"), Term::var("y")]);
    let scan_c = || RaExpr::scan("C", vec![Term::var("y")]);
    if depth == 0 {
        return match rng.gen_range(0..3) {
            0 => scan_a(),
            1 => scan_b(),
            _ => RaExpr::join(scan_a(), scan_c()),
        };
    }
    match rng.gen_range(0..8) {
        0 => RaExpr::join(random_plan(rng, depth - 1), random_plan(rng, depth - 1)),
        1 => RaExpr::union(random_plan(rng, depth - 1), random_plan(rng, depth - 1)),
        2 => RaExpr::diff(random_plan(rng, depth - 1), scan_c()),
        3 => RaExpr::diff(
            random_plan(rng, depth - 1),
            RaExpr::project(random_plan(rng, depth - 1), vec![Var::new("y")]),
        ),
        4 => RaExpr::select(
            random_plan(rng, depth - 1),
            match rng.gen_range(0..3) {
                0 => SelPred::EqCols(Var::new("x"), Var::new("y")),
                1 => SelPred::EqConst(Var::new("y"), Value::int(rng.gen_range(0..6))),
                _ => SelPred::NeqConst(Var::new("x"), Value::int(rng.gen_range(0..6))),
            },
        ),
        5 => RaExpr::join(RaExpr::Unit, random_plan(rng, depth - 1)),
        6 => RaExpr::union(
            random_plan(rng, depth - 1),
            RaExpr::Empty {
                cols: vec![Var::new("x"), Var::new("y")],
            },
        ),
        _ => RaExpr::join(random_plan(rng, depth - 1), scan_c()),
    }
}

/// A small skewed fixture database so the cost model has real statistics
/// to read (A large, B medium, C tiny).
fn stats_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut facts = String::new();
    for i in 0..40i64 {
        facts.push_str(&format!("A({}, {})\n", i, rng.gen_range(0..8)));
    }
    for i in 0..12i64 {
        facts.push_str(&format!("B({}, {})\n", rng.gen_range(0..8), i % 5));
    }
    facts.push_str("C(1)\nC(3)\n");
    db.load_facts(&facts).expect("fixture facts load");
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Generated allowed formulas: the cost-based plan agrees with the
    /// heuristic plan, sequentially and under forced partitioning.
    #[test]
    fn generated_formulas_optimize_soundly(seed in 0u64..10_000) {
        let cfg = GenConfig::default();
        let f = rectified(&random_allowed_formula(
            &cfg,
            &[Var::new("x")],
            &mut StdRng::seed_from_u64(seed),
            3,
        ));
        let db = random_db(&f, seed | 1);
        let Some((heuristic, optimized)) = both_plans(&f, &db) else {
            return Ok(());
        };
        assert_equivalent(&heuristic, &optimized, &db, &format!("gen seed {seed}"));
        let baseline = eval(&heuristic.expr, &db, &mut EvalCtx::default()).expect("heuristic plan evaluates");
        let budget = Budget::new().with_partitions(1 + (seed as usize % 4));
        let partitioned = eval(&optimized.expr, &db, &mut EvalCtx::new(&budget))
            .expect("optimized plan evaluates partitioned");
        prop_assert_eq!(partitioned, baseline);
    }

    /// The rewrite simplifier reaches a fixpoint in one pass.
    #[test]
    fn simplify_is_idempotent(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_plan(&mut rng, 4);
        let once = simplify(&e);
        prop_assert_eq!(&simplify(&once), &once, "simplify not idempotent on {}", e);
    }

    /// Re-running the cost-based planner on its own output is a no-op: the
    /// strict-improvement gate means a plan it already chose can never be
    /// "improved" again, so the plan hash is stable.
    #[test]
    fn optimize_is_plan_hash_stable(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_plan(&mut rng, 4);
        let db = stats_db(seed);
        let once = optimize(&e, &db);
        let twice = optimize(&once, &db);
        prop_assert_eq!(
            plan_hash(&twice),
            plan_hash(&once),
            "re-optimizing changed the plan: {} -> {}",
            once,
            twice
        );
        // And the chosen plan still means the same thing as the input.
        let aligned = RaExpr::project(once.clone(), e.cols());
        prop_assert_eq!(
            eval(&aligned, &db, &mut EvalCtx::default()).expect("optimized plan evaluates"),
            eval(&e, &db, &mut EvalCtx::default()).expect("raw plan evaluates"),
            "optimizer changed answers on {}",
            e
        );
    }
}

/// Feedback moves the statistics epoch, which fragments the *plan* cache
/// key (the plan may genuinely change) while results stay correct; plans
/// compiled with the optimizer off ignore the epoch entirely.
#[test]
fn feedback_epoch_fragments_plan_cache_but_not_answers() {
    let db = stats_db(42);
    let mut cache: PlanCache<Compiled> = PlanCache::new();
    let text = "A(x, y) & B(x, y)";
    let opts = CompileOptions::default;

    let first = compile_and_eval_cached(text, &db, opts(), &mut cache).expect("first eval");
    assert!(!first.plan_cached);
    let warm = compile_and_eval_cached(text, &db, opts(), &mut cache).expect("warm eval");
    assert!(warm.plan_cached, "same epoch must reuse the cached plan");

    // Feedback: pretend `explain analyze` observed this plan's true
    // cardinality. The epoch moves, so the next compile re-plans ...
    let moved = db.record_observed(plan_hash(&first.compiled.expr), first.relation.len() as u64);
    assert!(moved, "a fresh observation must move the epoch");
    let replanned = compile_and_eval_cached(text, &db, opts(), &mut cache).expect("replanned eval");
    assert!(
        !replanned.plan_cached,
        "an epoch move must miss the plan cache"
    );
    // ... but the answer is unchanged.
    assert_eq!(first.relation, replanned.relation);

    // With the optimizer off the plan never reads statistics, so the epoch
    // is pinned to 0 and feedback cannot fragment the key.
    let off = || CompileOptions {
        optimize: false,
        ..CompileOptions::default()
    };
    let cold = compile_and_eval_cached(text, &db, off(), &mut cache).expect("optimizer-off eval");
    assert!(!cold.plan_cached);
    db.record_observed(7777, 3);
    let still_warm =
        compile_and_eval_cached(text, &db, off(), &mut cache).expect("optimizer-off warm eval");
    assert!(
        still_warm.plan_cached,
        "optimizer-off plans must ignore the statistics epoch"
    );
    assert_eq!(cold.relation, replanned.relation);
}
