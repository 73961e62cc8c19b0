//! Differential suite for the cost-based planner: the optimized plan must
//! be *observationally identical* to the heuristic plan — same relation,
//! same answer-column order, sane [`EvalStats`] — across the paper corpus
//! and generated allowed formulas, including under forced partitioning and
//! budget cancellation. Plus properties over random plans: the rewrite
//! simplifier is a fixpoint after one pass; the cost-based planner agrees
//! with the reference evaluator, never prices above the simplifier, and
//! never changes the plan hash when re-run on its own output. The random
//! plans include unions whose branches share a join leg or a `diff` right
//! operand, so the cost pass's union factoring is exercised — and
//! near-misses it must leave alone, and anti-joins of products — the `∀`
//! shape the cost pass rewrites into relational division. Per-rule
//! soundness tests pin the two factoring identities and the division
//! rewrite directly, and the price the cost pass carries for its plan must
//! equal a fresh estimator walk of that plan, bit for bit.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_allowed_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::relalg::{
    eval, eval_baseline, harvest_actuals, optimize, optimize_priced, plan_hash, simplify,
    Estimator, EvalCtx, PlanCache, RaExpr, SelPred, Tracer,
};
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

/// A random plan mixing every operator, for the planner properties.
/// Invariant: every subplan has the column *set* `{x, y}` (in either
/// order), so unions stay arity-aligned, selections always see their
/// column, and diff right sides are the narrower/equal operands the
/// evaluator accepts.
fn random_plan(rng: &mut StdRng, depth: usize) -> RaExpr {
    let scan_a = || RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]);
    let scan_b = || RaExpr::scan("B", vec![Term::var("x"), Term::var("y")]);
    let scan_c = || RaExpr::scan("C", vec![Term::var("y")]);
    if depth == 0 {
        return match rng.gen_range(0..4) {
            0 => scan_a(),
            1 => scan_b(),
            // Same columns, other order: factoring must keep the union's.
            2 => RaExpr::scan("B", vec![Term::var("y"), Term::var("x")]),
            _ => RaExpr::join(scan_a(), scan_c()),
        };
    }
    match rng.gen_range(0..11) {
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
        7 => factorable_join_union(rng, depth - 1),
        8 => {
            // (A − W) ∪ (B − W), or a near-miss with two different right
            // operands that must not factor.
            let w = random_diff_rhs(rng, depth - 1);
            let w2 = if rng.gen_bool(0.25) {
                random_diff_rhs(rng, depth - 1)
            } else {
                w.clone()
            };
            RaExpr::union(
                RaExpr::diff(random_plan(rng, depth - 1), w),
                RaExpr::diff(random_plan(rng, depth - 1), w2),
            )
        }
        9 => division_shape(rng, depth - 1),
        _ => RaExpr::join(random_plan(rng, depth - 1), scan_c()),
    }
}

/// `π[x, y]((L ⋈ R) diff T)` — the `∀` shape the cost pass divides — with
/// `L` a random plan, `R` over fresh columns `L` lacks (`w`, maybe `v`),
/// on either side of the join, and `T` over `w` plus none, one or both of
/// `x, y`.
fn division_shape(rng: &mut StdRng, depth: usize) -> RaExpr {
    let (x, y) = (Var::new("x"), Var::new("y"));
    let r = match rng.gen_range(0..3) {
        0 => RaExpr::scan("C", vec![Term::var("w")]),
        1 => RaExpr::scan("B", vec![Term::var("w"), Term::var("v")]),
        _ => RaExpr::diff(
            RaExpr::scan("A", vec![Term::var("w"), Term::var("v")]),
            RaExpr::scan("C", vec![Term::var("v")]),
        ),
    };
    let t = match rng.gen_range(0..4) {
        0 => RaExpr::scan("A", vec![Term::var("x"), Term::var("w")]),
        1 => RaExpr::scan("B", vec![Term::var("w"), Term::var("y")]),
        // cols(T) ⊆ cols(R): a nullary quotient.
        2 => RaExpr::scan("C", vec![Term::var("w")]),
        _ => RaExpr::join(
            random_plan(rng, depth),
            RaExpr::scan("B", vec![Term::var("y"), Term::var("w")]),
        ),
    };
    let l = random_plan(rng, depth);
    let product = if rng.gen_bool(0.5) {
        RaExpr::join(l, r)
    } else {
        RaExpr::join(r, l)
    };
    let cols = if rng.gen_bool(0.5) {
        vec![x, y]
    } else {
        vec![y, x]
    };
    RaExpr::project(RaExpr::diff(product, t), cols)
}

/// A right operand for `diff` under [`random_plan`]'s invariant.
fn random_diff_rhs(rng: &mut StdRng, depth: usize) -> RaExpr {
    match rng.gen_range(0..3) {
        0 => RaExpr::scan("C", vec![Term::var("y")]),
        1 => RaExpr::project(random_plan(rng, depth), vec![Var::new("y")]),
        _ => random_plan(rng, depth),
    }
}

/// A union of two joins sharing one leg — on the right, on the left, or
/// on opposite sides — or a near-miss whose other operands have unequal
/// column sets (`{x, y}` against `{x}`), where factoring is not even
/// well-formed.
fn factorable_join_union(rng: &mut StdRng, depth: usize) -> RaExpr {
    let leg = if rng.gen_bool(0.5) {
        RaExpr::scan("C", vec![Term::var("y")])
    } else {
        random_plan(rng, depth)
    };
    let a = random_plan(rng, depth);
    let b = if rng.gen_bool(0.25) {
        // Near-miss: with `cols(B) = {x}` the branch `B ⋈ leg` still has
        // columns {x, y}, but `A ∪ B` is ill-formed.
        RaExpr::project(random_plan(rng, depth), vec![Var::new("x")])
    } else {
        random_plan(rng, depth)
    };
    let (l, r) = match rng.gen_range(0..4) {
        0 => (RaExpr::join(a, leg.clone()), RaExpr::join(b, leg)),
        1 => (RaExpr::join(leg.clone(), a), RaExpr::join(leg, b)),
        2 => (RaExpr::join(a, leg.clone()), RaExpr::join(leg, b)),
        _ => (RaExpr::join(leg.clone(), a), RaExpr::join(b, leg)),
    };
    RaExpr::union(l, r)
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

    /// The cost-based plan keeps the simplifier's column order and answers
    /// exactly like the reference evaluator (`relalg::baseline`) run on the
    /// simplifier's plan.
    #[test]
    fn optimized_random_plans_match_the_baseline(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_plan(&mut rng, 4);
        let db = stats_db(seed);
        let (heuristic, optimized) = (simplify(&e), optimize(&e, &db));
        prop_assert_eq!(optimized.cols(), heuristic.cols(), "column order moved on {}", e);
        prop_assert_eq!(
            eval(&optimized, &db, &mut EvalCtx::default()).expect("optimized plan evaluates"),
            eval_baseline(&heuristic, &db).expect("baseline evaluates"),
            "optimizer changed answers on {}\noptimized: {}",
            e,
            optimized
        );
    }

    /// Every cost-gated rewrite strictly lowers the estimated price, so the
    /// optimized plan is never priced above the simplifier's.
    #[test]
    fn optimize_never_prices_above_simplify(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_plan(&mut rng, 4);
        let db = stats_db(seed);
        let est = Estimator::new(&db);
        let (heuristic, optimized) = (simplify(&e), optimize(&e, &db));
        prop_assert!(
            est.cost(&optimized) <= est.cost(&heuristic),
            "optimized plan priced {} above the heuristic {} on {}\noptimized: {}",
            est.cost(&optimized),
            est.cost(&heuristic),
            e,
            optimized
        );
    }

    /// The planner prices each node once and carries prices up from the
    /// leaves; what it carries for its plan is exactly what a fresh walk
    /// of that plan computes — with an empty feedback store and with
    /// observations harvested from a traced run.
    #[test]
    fn optimize_carries_the_fresh_price(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_plan(&mut rng, 4);
        let db = stats_db(seed);
        if seed.is_multiple_of(2) {
            let plan = simplify(&e);
            let mut cx = EvalCtx::default().with_tracer(Tracer::on());
            eval(&plan, &db, &mut cx).expect("heuristic plan evaluates");
            harvest_actuals(&plan, cx.tracer.finish().as_ref(), &db);
        }
        let (plan, (cost, card)) = optimize_priced(&e, &db);
        prop_assert_eq!(&plan, &optimize(&e, &db));
        let (fresh_cost, fresh_card) = Estimator::new(&db).cost_and_estimate(&plan);
        prop_assert_eq!(cost.to_bits(), fresh_cost.to_bits(), "cost of {}", plan);
        prop_assert_eq!(card.rows.to_bits(), fresh_card.rows.to_bits(), "rows of {}", plan);
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

// ------------------------------------------------ union factoring rules --

/// A fixture where factoring pays: the shared leg `C` is twice the size of
/// either branch operand.
fn rule_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut facts = String::new();
    for _ in 0..15 {
        facts.push_str(&format!(
            "A({}, {})\n",
            rng.gen_range(0..6),
            rng.gen_range(0..4)
        ));
        facts.push_str(&format!(
            "B({}, {})\n",
            rng.gen_range(0..6),
            rng.gen_range(0..4)
        ));
    }
    for _ in 0..30 {
        facts.push_str(&format!(
            "C({}, {})\n",
            rng.gen_range(0..4),
            rng.gen_range(0..9)
        ));
    }
    Database::from_facts(&facts).expect("rule fixture facts load")
}

fn xy(p: &str) -> RaExpr {
    RaExpr::scan(p, vec![Term::var("x"), Term::var("y")])
}

fn yx(p: &str) -> RaExpr {
    RaExpr::scan(p, vec![Term::var("y"), Term::var("x")])
}

fn yz(p: &str) -> RaExpr {
    RaExpr::scan(p, vec![Term::var("y"), Term::var("z")])
}

/// Each distributed form equals its hand-built factored form on random
/// databases, and `optimize` turns it into exactly that factored form,
/// with the same rows in the same column order.
fn assert_factors(distributed: &RaExpr, factored: &RaExpr) {
    for seed in [1u64, 2, 5, 11] {
        let db = rule_db(seed);
        let want = eval(distributed, &db, &mut EvalCtx::default()).expect("lhs evaluates");
        let got = eval(factored, &db, &mut EvalCtx::default()).expect("rhs evaluates");
        assert_eq!(want, got, "{distributed} != {factored} (seed {seed})");
        let optimized = optimize(distributed, &db);
        assert_eq!(
            &optimized, factored,
            "optimize did not factor {distributed} (seed {seed})"
        );
        assert_eq!(optimized.cols(), distributed.cols());
    }
}

#[test]
fn rule_union_factor_is_sound() {
    let join = RaExpr::join;
    let ab = || RaExpr::union(xy("A"), xy("B"));
    // Common right leg, with B's columns in the other order.
    assert_factors(
        &RaExpr::union(join(xy("A"), yz("C")), join(yx("B"), yz("C"))),
        &join(RaExpr::union(xy("A"), yx("B")), yz("C")),
    );
    // Common left leg.
    assert_factors(
        &RaExpr::union(join(yz("C"), xy("A")), join(yz("C"), xy("B"))),
        &join(yz("C"), ab()),
    );
    // Commuted: the shared leg sits on opposite sides of the branches and
    // keeps the side it has in the left one.
    assert_factors(
        &RaExpr::union(join(xy("A"), yz("C")), join(yz("C"), xy("B"))),
        &join(ab(), yz("C")),
    );
    assert_factors(
        &RaExpr::union(join(yz("C"), xy("A")), join(xy("B"), yz("C"))),
        &join(yz("C"), ab()),
    );
    // cols(A) = {x, y} but cols(π[x](B)) = {x}: both branches have columns
    // {x, y, z}, yet A ∪ π[x](B) does not exist, so nothing may factor.
    let b_x = RaExpr::project(xy("B"), vec![Var::new("x")]);
    let e = RaExpr::union(join(xy("A"), yz("C")), join(b_x, yz("C")));
    assert!(matches!(optimize(&e, &rule_db(3)), RaExpr::Union(..)));
}

#[test]
fn rule_diff_distribute_is_sound() {
    let w = || RaExpr::scan("C", vec![Term::var("x"), Term::var("y")]);
    assert_factors(
        &RaExpr::union(RaExpr::diff(xy("A"), w()), RaExpr::diff(yx("B"), w())),
        &RaExpr::diff(RaExpr::union(xy("A"), yx("B")), w()),
    );
    // Different right operands have no factored form.
    let e = RaExpr::union(
        RaExpr::diff(xy("A"), w()),
        RaExpr::diff(
            xy("B"),
            RaExpr::scan("C", vec![Term::var("y"), Term::var("x")]),
        ),
    );
    assert!(matches!(optimize(&e, &rule_db(1)), RaExpr::Union(..)));
}

// ------------------------------------------------------ division rule --

/// A fixture where dividing pays: `P(x) × Q(w)` is 400 rows, `T` 150.
fn division_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut facts = String::new();
    for i in 0..20 {
        facts.push_str(&format!("P({i})\nQ({})\n", 100 + i));
    }
    // Key 0 pairs with every Q value, so some quotient key qualifies.
    for w in 100..120 {
        facts.push_str(&format!("T(0, {w})\nU({w})\n"));
    }
    for _ in 0..130 {
        let (x, w) = (rng.gen_range(0..20), rng.gen_range(100..120));
        facts.push_str(&format!("T({x}, {w})\n"));
    }
    Database::from_facts(&facts).expect("division fixture facts load")
}

/// `optimize` rewrites `shape` into exactly `divided`, and both answer
/// like the reference evaluator on the input, on several databases.
fn assert_divides(shape: &RaExpr, divided: &RaExpr) {
    for seed in [1u64, 4, 9] {
        let db = division_db(seed);
        let want = eval_baseline(shape, &db).expect("shape evaluates");
        let got = eval(divided, &db, &mut EvalCtx::default()).expect("divided form evaluates");
        assert_eq!(want, got, "{shape} != {divided} (seed {seed})");
        let optimized = optimize(shape, &db);
        assert_eq!(
            &optimized, divided,
            "optimize did not divide {shape} (seed {seed})"
        );
        assert_eq!(
            optimize(&optimized, &db),
            optimized,
            "division is a fixpoint"
        );
    }
}

#[test]
fn rule_divide_is_sound() {
    let (x, w) = (Var::new("x"), Var::new("w"));
    let p = || RaExpr::scan("P", vec![Term::var("x")]);
    let q = || RaExpr::scan("Q", vec![Term::var("w")]);
    let t_xw = || RaExpr::scan("T", vec![Term::var("x"), Term::var("w")]);
    let nonempty_q = || RaExpr::project(q(), Vec::new());
    let divided = |t: RaExpr, divisor: RaExpr| {
        RaExpr::diff(RaExpr::join(p(), nonempty_q()), RaExpr::divide(t, divisor))
    };
    // The product on either side of the join.
    let shape = |product: RaExpr, t: RaExpr| RaExpr::project(RaExpr::diff(product, t), vec![x]);
    assert_divides(
        &shape(RaExpr::join(p(), q()), t_xw()),
        &divided(t_xw(), q()),
    );
    let t_wx = || RaExpr::scan("T", vec![Term::var("w"), Term::var("x")]);
    assert_divides(
        &shape(RaExpr::join(q(), p()), t_wx()),
        &divided(t_wx(), q()),
    );
    // Under the column-restoring projection a join reorder adds.
    let restored = RaExpr::project(RaExpr::join(q(), p()), vec![x, w]);
    assert_divides(&shape(restored, t_xw()), &divided(t_xw(), q()));
    // cols(T) ⊆ cols(R): the quotient is nullary ("is Q ⊆ U?").
    let u = || RaExpr::scan("U", vec![Term::var("w")]);
    assert_divides(&shape(RaExpr::join(p(), q()), u()), &divided(u(), q()));
    // Near-misses: the kept columns span both sides, or the join sides
    // share a column (no product) — nothing divides.
    let db = division_db(1);
    let spans = RaExpr::project(RaExpr::diff(RaExpr::join(p(), q()), t_xw()), vec![x, w]);
    let shared = shape(RaExpr::join(p(), t_xw()), q());
    for e in [spans, shared] {
        assert!(
            !optimize(&e, &db).to_string().contains('÷'),
            "{e} must not divide"
        );
    }
}
