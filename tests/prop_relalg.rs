//! Property tests for the relational algebra substrate: algebraic laws of
//! the operator set the paper's translation emits, and invariance of the
//! expression simplifier.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_allowed_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::relalg::{eval, eval_baseline, simplify, EvalCtx, RaExpr, Relation, SelPred};
use rcsafe::safety::pipeline::{compile_with, CompileOptions};
use rcsafe::{Database, Term, Value, Var};

fn random_db(seed: u64, rows: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut a = Relation::new(2);
    let mut b = Relation::new(2);
    let mut c = Relation::new(1);
    for _ in 0..rows {
        a.insert(
            vec![
                Value::int(rng.gen_range(0..6)),
                Value::int(rng.gen_range(0..6)),
            ]
            .into_boxed_slice(),
        );
        b.insert(
            vec![
                Value::int(rng.gen_range(0..6)),
                Value::int(rng.gen_range(0..6)),
            ]
            .into_boxed_slice(),
        );
        c.insert(vec![Value::int(rng.gen_range(0..6))].into_boxed_slice());
    }
    db.insert_relation("A", a);
    db.insert_relation("B", b);
    db.insert_relation("C", c);
    db
}

fn scan_a() -> RaExpr {
    RaExpr::scan("A", vec![Term::var("x"), Term::var("y")])
}
fn scan_b() -> RaExpr {
    RaExpr::scan("B", vec![Term::var("y"), Term::var("z")])
}
fn scan_b_xy() -> RaExpr {
    RaExpr::scan("B", vec![Term::var("x"), Term::var("y")])
}
fn scan_c() -> RaExpr {
    RaExpr::scan("C", vec![Term::var("y")])
}

/// A random plan over columns `[x, y]` where roughly half the internal
/// nodes are `Diff` — the shape the selection-pushdown audit in
/// `rc_relalg::optimize` cares about (`σ` must stay on the left side of a
/// difference and never migrate to the right).
fn random_diff_plan(rng: &mut StdRng, depth: usize) -> RaExpr {
    if depth == 0 {
        return match rng.gen_range(0..3) {
            0 => scan_a(),
            1 => scan_b_xy(),
            _ => RaExpr::select(
                scan_a(),
                SelPred::NeqConst(Var::new("x"), Value::int(rng.gen_range(0..6))),
            ),
        };
    }
    match rng.gen_range(0..6) {
        // Differences dominate; the right side varies between same-arity
        // (plain minus) and narrower (generalized anti-join) operands.
        0..=2 => {
            let l = random_diff_plan(rng, depth - 1);
            let r = match rng.gen_range(0..3) {
                0 => random_diff_plan(rng, depth - 1),
                1 => scan_c(),
                _ => RaExpr::project(random_diff_plan(rng, depth - 1), vec![Var::new("y")]),
            };
            RaExpr::diff(l, r)
        }
        3 => RaExpr::union(
            random_diff_plan(rng, depth - 1),
            random_diff_plan(rng, depth - 1),
        ),
        4 => {
            let pred = match rng.gen_range(0..4) {
                0 => SelPred::EqCols(Var::new("x"), Var::new("y")),
                1 => SelPred::NeqCols(Var::new("x"), Var::new("y")),
                2 => SelPred::EqConst(Var::new("y"), Value::int(rng.gen_range(0..6))),
                _ => SelPred::NeqConst(Var::new("x"), Value::int(rng.gen_range(0..6))),
            };
            RaExpr::select(random_diff_plan(rng, depth - 1), pred)
        }
        _ => RaExpr::join(random_diff_plan(rng, depth - 1), scan_c()),
    }
}

/// Compare two expressions' results modulo column order (reorder the
/// second's columns to the first's).
fn same_answers(e1: &RaExpr, e2: &RaExpr, db: &Database) -> bool {
    let r1 = eval(e1, db, &mut EvalCtx::default()).expect("e1 evaluates");
    let cols1 = e1.cols();
    let aligned = RaExpr::project(e2.clone(), cols1);
    let r2 = eval(&aligned, db, &mut EvalCtx::default()).expect("e2 evaluates");
    r1 == r2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Natural join is commutative and associative (modulo column order).
    #[test]
    fn join_commutative_associative(seed in 0u64..10_000) {
        let db = random_db(seed, 20);
        let ab = RaExpr::join(scan_a(), scan_b());
        let ba = RaExpr::join(scan_b(), scan_a());
        prop_assert!(same_answers(&ab, &ba, &db));
        let abc1 = RaExpr::join(RaExpr::join(scan_a(), scan_b()), scan_c());
        let abc2 = RaExpr::join(scan_a(), RaExpr::join(scan_b(), scan_c()));
        prop_assert!(same_answers(&abc1, &abc2, &db));
    }

    /// Union laws: commutative, associative, idempotent.
    #[test]
    fn union_laws(seed in 0u64..10_000) {
        let db = random_db(seed, 20);
        let u1 = RaExpr::union(scan_a(), scan_b_xy());
        let u2 = RaExpr::union(scan_b_xy(), scan_a());
        prop_assert!(same_answers(&u1, &u2, &db));
        prop_assert!(same_answers(&RaExpr::union(scan_a(), scan_a()), &scan_a(), &db));
    }

    /// Def. 9.3: `P diff Q ≡ P − π(P ⋈ Q)` where the join is on Q's
    /// columns and the projection back onto P's.
    #[test]
    fn diff_equals_its_definition(seed in 0u64..10_000) {
        let db = random_db(seed, 20);
        let p = scan_a();
        let q = scan_c(); // columns {y} ⊂ {x, y}
        let lhs = RaExpr::diff(p.clone(), q.clone());
        // P − π_P(P ⋈ Q): with set semantics, express the subtraction as a
        // same-arity diff.
        let joined = RaExpr::project(RaExpr::join(p.clone(), q), p.cols());
        let rhs = RaExpr::diff(p, joined);
        prop_assert!(same_answers(&lhs, &rhs, &db));
    }

    /// Same-arity diff is plain set difference.
    #[test]
    fn diff_same_arity_is_minus(seed in 0u64..10_000) {
        let db = random_db(seed, 20);
        let e = RaExpr::diff(scan_a(), scan_b_xy());
        let r = eval(&e, &db, &mut EvalCtx::default()).unwrap();
        let a = eval(&scan_a(), &db, &mut EvalCtx::default()).unwrap();
        let b = eval(&scan_b_xy(), &db, &mut EvalCtx::default()).unwrap();
        prop_assert_eq!(r, a.minus(&b));
    }

    /// Projection cascade: π[c](π[d](e)) = π[c](e) when c ⊆ d.
    #[test]
    fn projection_cascade(seed in 0u64..10_000) {
        let db = random_db(seed, 20);
        let inner = RaExpr::project(scan_a(), vec![Var::new("y"), Var::new("x")]);
        let lhs = RaExpr::project(inner, vec![Var::new("y")]);
        let rhs = RaExpr::project(scan_a(), vec![Var::new("y")]);
        prop_assert!(same_answers(&lhs, &rhs, &db));
    }

    /// The simplifier is the identity on answers, exercised over the
    /// expressions the real pipeline produces (optimize off vs on) plus
    /// synthetic noise (unit joins, empty unions, identity projections).
    #[test]
    fn simplify_preserves_semantics(seed in 0u64..10_000) {
        let db = random_db(seed, 20);
        // Synthetic: wrap a pipeline expression in cruft, simplify, compare.
        let cfg = GenConfig {
            schema: rcsafe::Schema::new().with("A", 2).with("B", 2).with("C", 1),
            ..GenConfig::default()
        };
        let f = rectified(&random_allowed_formula(
            &cfg,
            &[Var::new("x")],
            &mut StdRng::seed_from_u64(seed),
            3,
        ));
        let Ok(c) = compile_with(&f, CompileOptions { optimize: false, ..CompileOptions::default() }) else {
            return Ok(());
        };
        // The allowed-formula generator may synthesize wide predicates the
        // fixture database lacks; declare them empty.
        let mut db = db;
        for (p, arity) in f.predicates() {
            db.declare(p, arity);
        }
        let e = c.expr;
        let noisy = RaExpr::union(
            RaExpr::join(RaExpr::Unit, RaExpr::project(e.clone(), e.cols())),
            RaExpr::Empty { cols: e.cols() },
        );
        let slim = simplify(&noisy);
        prop_assert!(slim.node_count() <= noisy.node_count());
        prop_assert!(same_answers(&noisy, &slim, &db), "{} vs {}", noisy, slim);
        // And the simplifier must actually strip the cruft.
        prop_assert_eq!(&slim, &simplify(&e));
    }

    /// The selection-pushdown audit, property-tested: on Diff-heavy plans
    /// (selections wrapped around differences at every depth) the
    /// simplifier and the memoizing DAG evaluator both agree with the
    /// tuple-at-a-time baseline. A pushdown that crossed to the right side
    /// of a `Diff` would resurrect tuples here and fail the comparison.
    #[test]
    fn diff_heavy_plans_optimize_and_share_soundly(seed in 0u64..10_000) {
        let db = random_db(seed, 15);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let e = RaExpr::select(
            random_diff_plan(&mut rng, 3),
            SelPred::NeqConst(Var::new("x"), Value::int(rng.gen_range(0..6))),
        );
        let raw = eval_baseline(&e, &db).expect("raw plan evaluates");
        let slim = simplify(&e);
        prop_assert!(
            same_answers(&e, &slim, &db),
            "optimizer changed answers on {e} -> {slim}"
        );
        let shared = eval(&e, &db, &mut EvalCtx::default()).expect("shared eval evaluates");
        prop_assert_eq!(shared, raw, "memoized DAG eval diverged on {}", e);
    }

    /// Scans with repeated variables equal an explicit selection.
    #[test]
    fn repeated_var_scan_is_selection(seed in 0u64..10_000) {
        let db = random_db(seed, 30);
        let diagonal = RaExpr::scan("A", vec![Term::var("x"), Term::var("x")]);
        let via_select = RaExpr::project(
            RaExpr::select(
                scan_a(),
                rcsafe::relalg::SelPred::EqCols(Var::new("x"), Var::new("y")),
            ),
            vec![Var::new("x")],
        );
        prop_assert!(same_answers(&diagonal, &via_select, &db));
    }
}

/// Nullary relations behave as booleans through every operator.
#[test]
fn nullary_boolean_algebra() {
    let mut db = Database::new();
    db.insert_relation("T", Relation::unit());
    db.insert_relation("F", Relation::empty_nullary());
    let t = RaExpr::scan("T", vec![]);
    let f = RaExpr::scan("F", vec![]);
    // Join = conjunction.
    assert_eq!(
        eval(
            &RaExpr::join(t.clone(), t.clone()),
            &db,
            &mut EvalCtx::default()
        )
        .unwrap()
        .as_bool(),
        Some(true)
    );
    assert_eq!(
        eval(
            &RaExpr::join(t.clone(), f.clone()),
            &db,
            &mut EvalCtx::default()
        )
        .unwrap()
        .as_bool(),
        Some(false)
    );
    // Union = disjunction.
    assert_eq!(
        eval(
            &RaExpr::union(f.clone(), t.clone()),
            &db,
            &mut EvalCtx::default()
        )
        .unwrap()
        .as_bool(),
        Some(true)
    );
    // Diff = and-not.
    assert_eq!(
        eval(
            &RaExpr::diff(t.clone(), f.clone()),
            &db,
            &mut EvalCtx::default()
        )
        .unwrap()
        .as_bool(),
        Some(true)
    );
    assert_eq!(
        eval(&RaExpr::diff(t.clone(), t), &db, &mut EvalCtx::default())
            .unwrap()
            .as_bool(),
        Some(false)
    );
    assert_eq!(
        eval(&RaExpr::diff(f.clone(), f), &db, &mut EvalCtx::default())
            .unwrap()
            .as_bool(),
        Some(false)
    );
}
