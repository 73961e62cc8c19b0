//! Rewrite-soundness suite for the plan rewrites the planner relies on.
//! The file keeps the name of the equality-saturation planner these
//! tests first covered; its rewrites now live in `simplify` and
//! `optimize`, so the same properties are checked against them.
//!
//! Three-way differential: the cost-based plan, the heuristic plan and the
//! unoptimized plan are *observationally identical* — same relation, same
//! answer-column order — across the paper corpus and generated allowed
//! formulas, including under forced partitioning, cancelled budgets and
//! tight node budgets. Per-rewrite soundness: each identity's left- and
//! right-hand sides, built by hand, evaluate alike on random databases,
//! and `simplify` and `optimize` preserve answers on its trigger shape.

#![recursion_limit = "512"]

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_allowed_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::relalg::{eval, optimize, simplify, Estimator, EvalCtx, RaExpr, SelPred};
use rcsafe::safety::corpus::{corpus, formula_of, random_db};
use rcsafe::safety::pipeline::{compile_for, compile_with, CompileOptions, Compiled};
use rcsafe::{Budget, Database, Term, Value, Var};

/// Compile `f` three ways: heuristic-only (no database statistics),
/// cost-based against `db`, and with the optimizer off.
fn three_plans(f: &rcsafe::Formula, db: &Database) -> Option<(Compiled, Compiled, Compiled)> {
    let heuristic = compile_with(f, CompileOptions::default()).ok()?;
    let cost = compile_for(f, CompileOptions::default(), db).ok()?;
    let raw = compile_with(
        f,
        CompileOptions {
            optimize: false,
            ..CompileOptions::default()
        },
    )
    .ok()?;
    Some((heuristic, cost, raw))
}

/// All three compiled forms must expose the same answer columns and
/// produce the identical relation on `db`.
fn assert_three_way(h: &Compiled, c: &Compiled, r: &Compiled, db: &Database, ctx: &str) {
    assert_eq!(h.columns, c.columns, "{ctx}: cost planner changed columns");
    assert_eq!(h.columns, r.columns, "{ctx}: simplifier changed columns");
    let baseline = eval(&r.expr, db, &mut EvalCtx::default()).expect("raw plan evaluates");
    let heuristic = eval(&h.expr, db, &mut EvalCtx::default()).expect("heuristic plan evaluates");
    let costed = eval(&c.expr, db, &mut EvalCtx::default()).expect("cost plan evaluates");
    assert_eq!(
        baseline, heuristic,
        "{ctx}: heuristic plan diverged\nraw: {}\nheuristic: {}",
        r.expr, h.expr
    );
    assert_eq!(
        baseline, costed,
        "{ctx}: cost plan diverged\nraw: {}\ncost: {}",
        r.expr, c.expr
    );
}

/// Every wide-sense corpus entry: cost-based ≡ heuristic ≡ unoptimized on
/// empty and random databases, and the cost-based plan is never estimated
/// costlier than the heuristic one.
#[test]
fn corpus_saturated_plans_match_heuristic_and_cost_plans() {
    for entry in corpus().iter().filter(|e| e.wide_sense) {
        let f = formula_of(entry);
        for seed in [0u64, 1, 2, 7] {
            let db = random_db(&f, seed);
            let Some((h, c, r)) = three_plans(&f, &db) else {
                continue;
            };
            let ctx = format!("{} seed {seed}", entry.id);
            assert_three_way(&h, &c, &r, &db, &ctx);
            let est = Estimator::new(&db);
            assert!(
                est.cost(&c.expr) <= est.cost(&h.expr),
                "{ctx}: cost planner chose a costlier plan\nheuristic: {}\ncost: {}",
                h.expr,
                c.expr
            );
        }
    }
}

/// Forced partitioning must not interact with the rewrites: for every
/// corpus entry and partition count 1..=4 the cost-based plan still
/// equals the unoptimized plan's answer.
#[test]
fn corpus_saturated_plans_survive_forced_partitioning() {
    for entry in corpus().iter().filter(|e| e.wide_sense) {
        let f = formula_of(entry);
        let db = random_db(&f, 7);
        let Some((_, c, r)) = three_plans(&f, &db) else {
            continue;
        };
        let baseline = eval(&r.expr, &db, &mut EvalCtx::default()).expect("raw plan evaluates");
        for parts in 1..=4usize {
            let budget = Budget::new().with_partitions(parts);
            let out = eval(&c.expr, &db, &mut EvalCtx::new(&budget))
                .expect("cost plan evaluates under forced partitioning");
            assert_eq!(
                out, baseline,
                "{}: cost plan diverged at {parts} partition(s)",
                entry.id
            );
        }
    }
}

/// A budget cancelled before compilation starts stops the cost-based
/// compile: it errors rather than returning a plan built under a dead
/// budget.
#[test]
fn corpus_saturation_honors_cancelled_budgets() {
    for entry in corpus().iter().filter(|e| e.wide_sense).take(6) {
        let f = formula_of(entry);
        let db = random_db(&f, 7);
        let budget = Budget::new();
        budget.cancel_handle().cancel();
        let out = compile_for(
            &f,
            CompileOptions {
                budget,
                ..CompileOptions::default()
            },
            &db,
        );
        assert!(
            out.is_err(),
            "{}: cost-based compile ignored a pre-cancelled budget",
            entry.id
        );
    }
}

/// Generated allowed formulas: the cost-based plan agrees with the
/// heuristic and unoptimized plans, sequentially and under forced
/// partitioning.
fn check_generated_formula(seed: u64) {
    let f = generated(seed);
    let db = random_db(&f, seed | 1);
    let Some((h, c, r)) = three_plans(&f, &db) else {
        return;
    };
    assert_three_way(&h, &c, &r, &db, &format!("gen seed {seed}"));
    let baseline = eval(&r.expr, &db, &mut EvalCtx::default()).expect("raw plan evaluates");
    let budget = Budget::new().with_partitions(1 + (seed as usize % 4));
    let partitioned =
        eval(&c.expr, &db, &mut EvalCtx::new(&budget)).expect("cost plan evaluates partitioned");
    assert_eq!(
        partitioned, baseline,
        "gen seed {seed}: partitioned cost-plan eval diverged"
    );
}

/// A tight node budget never corrupts the plan: the cost-based compile
/// either errors (the formula outgrew the bound) or returns a plan with
/// the unbudgeted answer.
fn check_node_budget(seed: u64, max_nodes: u64) {
    let f = generated(seed);
    let db = random_db(&f, seed | 1);
    let Ok(unbudgeted) = compile_for(&f, CompileOptions::default(), &db) else {
        return;
    };
    let want = eval(&unbudgeted.expr, &db, &mut EvalCtx::default()).expect("plan evaluates");
    let opts = CompileOptions {
        budget: Budget::new().with_max_nodes(max_nodes),
        ..CompileOptions::default()
    };
    match compile_for(&f, opts, &db) {
        Err(_) => {} // the formula alone exceeded the bound
        Ok(bounded) => assert_eq!(
            eval(&bounded.expr, &db, &mut EvalCtx::default()).expect("bounded plan evaluates"),
            want,
            "gen seed {seed}: node-bounded compile changed answers"
        ),
    }
}

fn generated(seed: u64) -> rcsafe::Formula {
    rectified(&random_allowed_formula(
        &GenConfig::default(),
        &[Var::new("x")],
        &mut StdRng::seed_from_u64(seed),
        3,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn generated_formulas_saturate_soundly(seed in 0u64..10_000) {
        check_generated_formula(seed);
    }

    #[test]
    fn saturation_under_node_budgets_errs_or_agrees(seed in 0u64..10_000) {
        check_node_budget(seed, 1 + seed % 64);
    }
}

// ---------------------------------------------- per-rewrite soundness --

/// Evaluate `plan` raw, simplified and optimized on a family of random
/// databases and require identical answers in the same column order.
fn assert_rewrites_sound(plan: &RaExpr, rule: &str) {
    for seed in [1u64, 2, 5, 11] {
        let db = rule_db(seed);
        let want = eval(plan, &db, &mut EvalCtx::default()).expect("raw plan evaluates");
        for (name, rewritten) in [
            ("simplify", simplify(plan)),
            ("optimize", optimize(plan, &db)),
        ] {
            assert_eq!(
                rewritten.cols(),
                plan.cols(),
                "rule {rule}: {name} changed the column order of {plan}"
            );
            assert_eq!(
                eval(&rewritten, &db, &mut EvalCtx::default()).expect("rewritten plan evaluates"),
                want,
                "rule {rule}: {name} changed answers on {plan} (seed {seed})\ngot: {rewritten}"
            );
        }
    }
}

/// The direct per-rewrite soundness property: the identity's left- and
/// right-hand sides, built by hand, evaluate to the same relation on a
/// family of random databases (right side projected onto the left's
/// column order where the rewrite reorders columns).
fn assert_rule_equivalence(lhs: &RaExpr, rhs: &RaExpr, rule: &str) {
    for seed in [1u64, 2, 5, 11] {
        let db = rule_db(seed);
        let l = eval(lhs, &db, &mut EvalCtx::default()).expect("lhs evaluates");
        let aligned = if rhs.cols() == lhs.cols() {
            rhs.clone()
        } else {
            RaExpr::project(rhs.clone(), lhs.cols())
        };
        let r = eval(&aligned, &db, &mut EvalCtx::default()).expect("rhs evaluates");
        assert_eq!(l, r, "rule {rule}: {lhs} != {rhs} (seed {seed})");
    }
}

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

fn yz(p: &str) -> RaExpr {
    RaExpr::scan(p, vec![Term::var("y"), Term::var("z")])
}

#[test]
fn rule_select_push_join_is_sound() {
    let pred = SelPred::NeqConst(Var::new("z"), Value::int(3));
    let lhs = RaExpr::select(RaExpr::join(xy("A"), yz("C")), pred);
    let rhs = RaExpr::join(xy("A"), RaExpr::select(yz("C"), pred));
    assert_rule_equivalence(&lhs, &rhs, "select-push-join");
    assert_rewrites_sound(&lhs, "select-push-join");
}

#[test]
fn rule_select_push_union_is_sound() {
    let pred = SelPred::EqConst(Var::new("x"), Value::int(2));
    let lhs = RaExpr::select(RaExpr::union(xy("A"), xy("B")), pred);
    let rhs = RaExpr::union(RaExpr::select(xy("A"), pred), RaExpr::select(xy("B"), pred));
    assert_rule_equivalence(&lhs, &rhs, "select-push-union");
    assert_rewrites_sound(&lhs, "select-push-union");
}

#[test]
fn rule_select_push_diff_is_sound() {
    let pred = SelPred::NeqConst(Var::new("x"), Value::int(2));
    let lhs = RaExpr::select(RaExpr::diff(xy("A"), xy("B")), pred);
    let rhs = RaExpr::diff(RaExpr::select(xy("A"), pred), xy("B"));
    assert_rule_equivalence(&lhs, &rhs, "select-push-diff");
    assert_rewrites_sound(&lhs, "select-push-diff");
    // The right-side push is NOT an equivalence: the classic
    // counterexample A = {1, 2}, B = {2}, p = (x ≠ 2) separates them.
    let db = Database::from_facts("A(1)\nA(2)\nB(2)").unwrap();
    let x = || RaExpr::scan("A", vec![Term::var("x")]);
    let b = || RaExpr::scan("B", vec![Term::var("x")]);
    let p = SelPred::NeqConst(Var::new("x"), Value::int(2));
    let sound = RaExpr::select(RaExpr::diff(x(), b()), p);
    let unsound = RaExpr::diff(x(), RaExpr::select(b(), p));
    assert_ne!(
        eval(&sound, &db, &mut EvalCtx::default()).unwrap(),
        eval(&unsound, &db, &mut EvalCtx::default()).unwrap(),
        "right-side diff pushdown must never be applied: it is not an equivalence"
    );
}

#[test]
fn rule_project_narrow_is_sound() {
    let lhs = RaExpr::project(RaExpr::join(xy("A"), yz("C")), vec![Var::new("x")]);
    let rhs = RaExpr::project(
        RaExpr::join(xy("A"), RaExpr::project(yz("C"), vec![Var::new("y")])),
        vec![Var::new("x")],
    );
    assert_rule_equivalence(&lhs, &rhs, "project-narrow");
    assert_rewrites_sound(&lhs, "project-narrow");
}

#[test]
fn rule_join_commute_and_associate_are_sound() {
    let commute_lhs = RaExpr::join(xy("A"), yz("C"));
    let commute_rhs = RaExpr::join(yz("C"), xy("A"));
    assert_rule_equivalence(&commute_lhs, &commute_rhs, "join-commute");
    let assoc_lhs = RaExpr::join(RaExpr::join(xy("A"), yz("C")), xy("B"));
    let assoc_rhs = RaExpr::join(xy("A"), RaExpr::join(yz("C"), xy("B")));
    assert_rule_equivalence(&assoc_lhs, &assoc_rhs, "join-associate");
    assert_rewrites_sound(&assoc_lhs, "join-commute");
    assert_rewrites_sound(&assoc_rhs, "join-associate");
}
