//! Differential tests for the batch-kernel engine: on random expressions
//! and random databases, the flat-row evaluator must be observationally
//! identical to the tuple-at-a-time baseline it replaced — same tuples AND
//! the same deterministic row order — whether the expression comes from the
//! compilation pipeline or is built by hand, and whether the engine runs
//! sequentially or takes the parallel path. The same hand-built shapes
//! also drive the IVM Δ-rules: a refreshed view must equal evaluation.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsafe::formula::generate::{random_allowed_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::relalg::{
    eval, eval_baseline, refresh, EvalCtx, EvalStats, MaintainedView, RelationBuilder,
};
use rcsafe::safety::pipeline::{compile_with, CompileOptions};
use rcsafe::{Budget, Database, RaExpr, Term, Tracer, Value, Var};
use std::sync::Arc;

fn random_db(seed: u64, rows: usize, domain: i64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for (name, arity) in [("A", 2), ("B", 2), ("C", 1)] {
        let mut b = RelationBuilder::with_capacity(arity, rows);
        for _ in 0..rows {
            b.push_row_from((0..arity).map(|_| Value::int(rng.gen_range(0..domain))));
        }
        db.insert_relation(name, b.finish());
    }
    db
}

/// A random mutation of every table as delta fact text: one to three
/// inserts of random rows over `0..domain`, and up to three deletes of
/// stored rows (so the Δ⁻ rules see real deletions).
fn random_delta_text(db: &Database, rng: &mut StdRng, domain: i64) -> String {
    let mut lines = Vec::new();
    for (name, arity) in [("A", 2), ("B", 2), ("C", 1)] {
        for _ in 0..rng.gen_range(1..=3) {
            let row: Vec<String> = (0..arity)
                .map(|_| rng.gen_range(0..domain).to_string())
                .collect();
            lines.push(format!("{name}({})", row.join(", ")));
        }
        let rel = db.relation(name.into()).expect("table present");
        for _ in 0..rng.gen_range(0..=3usize).min(rel.len()) {
            let row: Vec<String> = rel
                .row(rng.gen_range(0..rel.len()))
                .iter()
                .map(|v| v.to_string())
                .collect();
            lines.push(format!("-{name}({})", row.join(", ")));
        }
    }
    lines.join("\n")
}

/// Assert both engines produce the same relation, rendered identically.
fn assert_engines_agree(e: &RaExpr, db: &Database) {
    let fast = eval(e, db, &mut EvalCtx::default()).expect("kernel eval");
    let slow = eval_baseline(e, db).expect("baseline eval");
    assert_eq!(fast, slow, "engines disagree on {e}");
    assert_eq!(
        fast.to_string(),
        slow.to_string(),
        "row order differs on {e}"
    );
}

/// A family of hand-built expressions hitting every operator and the
/// kernels' fast paths (semijoin, cross product, identity union/diff
/// permutations, order-preserving filters).
fn synthetic_exprs() -> Vec<RaExpr> {
    let a = || RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]);
    let b_yz = || RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]);
    let b_xy = || RaExpr::scan("B", vec![Term::var("x"), Term::var("y")]);
    let b_yx = || RaExpr::scan("B", vec![Term::var("y"), Term::var("x")]);
    let c = || RaExpr::scan("C", vec![Term::var("y")]);
    let c_w = || RaExpr::scan("C", vec![Term::var("w")]);
    vec![
        // Join with extra columns on the right (general hash join).
        RaExpr::join(a(), b_yz()),
        // Semijoin: right side adds no columns.
        RaExpr::join(a(), c()),
        // Cross product: no shared columns.
        RaExpr::join(a(), c_w()),
        // Union, identity and non-identity permutations.
        RaExpr::union(a(), b_xy()),
        RaExpr::union(a(), b_yx()),
        // Same-arity diff (merge path) and anti-join (projection path).
        RaExpr::diff(a(), b_xy()),
        RaExpr::diff(a(), c()),
        // Projection that reorders, selection chains, duplication.
        RaExpr::project(
            RaExpr::join(a(), b_yz()),
            vec![Var::new("z"), Var::new("x")],
        ),
        RaExpr::select(
            a(),
            rcsafe::relalg::SelPred::NeqCols(Var::new("x"), Var::new("y")),
        ),
        RaExpr::select(
            a(),
            rcsafe::relalg::SelPred::EqConst(Var::new("x"), Value::int(1)),
        ),
        RaExpr::Duplicate {
            input: Arc::new(c()),
            src: Var::new("y"),
            dst: Var::new("y2"),
        },
        // Scan-level selection: constants and repeated variables.
        RaExpr::scan("A", vec![Term::var("x"), Term::val(2)]),
        RaExpr::scan("A", vec![Term::var("x"), Term::var("x")]),
        // A deeper composite: (A ⋈ B) diff C ∪ permuted self.
        RaExpr::union(
            RaExpr::diff(RaExpr::join(a(), b_yz()), c()),
            RaExpr::project(
                RaExpr::join(b_yx(), b_yz()),
                vec![Var::new("x"), Var::new("y"), Var::new("z")],
            ),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Hand-built operator shapes: kernels vs baseline on random data.
    #[test]
    fn kernels_match_baseline_on_synthetic_exprs(seed in 0u64..10_000) {
        let db = random_db(seed, 25, 8);
        for e in synthetic_exprs() {
            assert_engines_agree(&e, &db);
        }
    }

    /// Pipeline-compiled expressions (the shapes the paper's translation
    /// actually emits): kernels vs baseline, optimized and raw.
    #[test]
    fn kernels_match_baseline_on_pipeline_exprs(seed in 0u64..4_000) {
        let cfg = GenConfig::default();
        let f = rectified(&random_allowed_formula(
            &cfg,
            &[Var::new("x"), Var::new("y")],
            &mut StdRng::seed_from_u64(seed),
            3,
        ));
        prop_assume!(f.node_count() <= 60);
        for optimize in [false, true] {
            let Ok(c) = compile_with(&f, CompileOptions { optimize, ..CompileOptions::default() })
            else { return Ok(()); };
            let schema = rcsafe::Schema::infer(&f).expect("consistent");
            let domain: Vec<Value> = (0..6).map(Value::int).collect();
            let db = Database::random(
                &schema,
                &domain,
                8,
                &mut StdRng::seed_from_u64(seed ^ 0x5EED),
            );
            let fast = eval(&c.expr, &db, &mut EvalCtx::default()).expect("kernel eval");
            let slow = eval_baseline(&c.expr, &db).expect("baseline eval");
            prop_assert_eq!(&fast, &slow, "engines disagree on {} (optimize={})", &f, optimize);
            prop_assert_eq!(
                fast.to_string(),
                slow.to_string(),
                "row order differs on {}", &f
            );
        }
    }

    /// Forced partition counts — 1 (sequential kernels), a random small
    /// count, and far more partitions than rows — never change the answer
    /// or its row order, across every hand-built operator shape.
    #[test]
    fn partitioned_matches_sequential_on_synthetic_exprs(seed in 0u64..3_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9A71);
        let db = random_db(seed, 40, 9);
        let counts = [1usize, rng.gen_range(2..=7), 97];
        for e in synthetic_exprs() {
            let want = eval(&e, &db, &mut EvalCtx::default()).expect("auto-policy eval");
            for &n in &counts {
                let budget = Budget::new().with_partitions(n);
                let got = eval(&e, &db, &mut EvalCtx::new(&budget))
                    .expect("partitioned eval");
                prop_assert_eq!(&want, &got, "partitions={} on {}", n, &e);
                prop_assert_eq!(
                    want.to_string(),
                    got.to_string(),
                    "order differs at partitions={} on {}", n, &e
                );
            }
        }
    }

    /// The same partition-invisibility property on pipeline-compiled
    /// expressions — the operator shapes the paper's translation emits.
    #[test]
    fn partitioned_matches_sequential_on_pipeline_exprs(seed in 0u64..1_500) {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let f = rectified(&random_allowed_formula(
            &cfg,
            &[Var::new("x"), Var::new("y")],
            &mut StdRng::seed_from_u64(seed),
            3,
        ));
        prop_assume!(f.node_count() <= 60);
        let Ok(c) = compile_with(&f, CompileOptions::default()) else { return Ok(()); };
        let schema = rcsafe::Schema::infer(&f).expect("consistent");
        let domain: Vec<Value> = (0..6).map(Value::int).collect();
        let db = Database::random(&schema, &domain, 10, &mut StdRng::seed_from_u64(seed ^ 0x5EED));
        let seq = Budget::new().with_partitions(1);
        let want = eval(&c.expr, &db, &mut EvalCtx::new(&seq))
            .expect("sequential eval");
        for n in [rng.gen_range(2..=8), 64usize] {
            let budget = Budget::new().with_partitions(n);
            let got = eval(&c.expr, &db, &mut EvalCtx::new(&budget))
                .expect("partitioned eval");
            prop_assert_eq!(&want, &got, "partitions={} on {}", n, &f);
            prop_assert_eq!(
                want.to_string(),
                got.to_string(),
                "order differs at partitions={} on {}", n, &f
            );
        }
    }

    /// The IVM Δ-rules shape by shape: a recorded view of every
    /// hand-built shape (scans with constants and repeated variables,
    /// `NeqCols`/`EqConst` selects, `Duplicate`, permuted union, anti-join,
    /// cross product, ...) is refreshed through three random insert+delete
    /// deltas, and each refresh must succeed and equal full evaluation of
    /// the mutated database. Forced partition counts 1 and k govern the
    /// recording run, the refresh and the reference alike.
    #[test]
    fn refresh_matches_eval_on_synthetic_exprs(seed in 0u64..2_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
        let base = random_db(seed, 30, 8);
        for n in [1usize, rng.gen_range(2..=7)] {
            let budget = Budget::new().with_partitions(n);
            for e in synthetic_exprs() {
                let mut db = base.clone();
                let mut cx = EvalCtx::new(&budget);
                eval(&e, &db, &mut cx).expect("recording eval");
                let mut view = MaintainedView::recorded(&mut cx, db.version()).expect("memo");
                for round in 0..3 {
                    let text = random_delta_text(&db, &mut rng, 8);
                    let delta = db.apply_delta(&text).expect("delta applies");
                    let refreshed = refresh(
                        &view,
                        &delta,
                        db.version(),
                        &mut EvalStats::default(),
                        &budget,
                        &mut Tracer::off(),
                    );
                    let (next, got) = match refreshed {
                        Ok(done) => done,
                        Err(err) => {
                            return Err(TestCaseError::fail(format!(
                                "refresh of {e} failed at partitions={n} round {round}: {err}"
                            )))
                        }
                    };
                    let want = eval(&e, &db, &mut EvalCtx::new(&budget)).expect("full eval");
                    prop_assert_eq!(
                        &got, &want,
                        "refresh ≠ eval on {} at partitions={} round {} after {:?}",
                        &e, n, round, &text
                    );
                    prop_assert_eq!(next.result(), &want);
                    view = next;
                }
            }
        }
    }

    /// Evaluation is a pure function: repeated runs give bit-identical
    /// renderings and identical stats.
    #[test]
    fn evaluation_is_deterministic(seed in 0u64..10_000) {
        let db = random_db(seed, 30, 6);
        for e in synthetic_exprs() {
            let (mut s1, mut s2) = (EvalCtx::default(), EvalCtx::default());
            let r1 = eval(&e, &db, &mut s1).expect("run 1");
            let r2 = eval(&e, &db, &mut s2).expect("run 2");
            prop_assert_eq!(&r1, &r2);
            prop_assert_eq!(r1.to_string(), r2.to_string(), "order differs on {}", &e);
            prop_assert_eq!(s1.stats, s2.stats, "stats differ on {}", &e);
        }
    }
}

/// Partition-parallel kernels over 9000-row inputs must produce the same
/// relation, in the same order, as the baseline — on join, union and diff
/// roots.
#[test]
fn parallel_path_matches_baseline() {
    let rows: usize = 9_000;
    let mut a = RelationBuilder::with_capacity(2, rows);
    let mut b = RelationBuilder::with_capacity(2, rows);
    for i in 0..rows as i64 {
        a.push_row(&[Value::int(i), Value::int(i % 17)]);
        b.push_row(&[Value::int(i % 17), Value::int(i % 251)]);
    }
    let mut db = Database::new();
    db.insert_relation("A", a.finish());
    db.insert_relation("B", b.finish());
    let scan_a = RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]);
    let scan_b = RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]);
    let scan_b_xy = RaExpr::scan("B", vec![Term::var("x"), Term::var("y")]);
    for e in [
        RaExpr::join(scan_a.clone(), scan_b.clone()),
        RaExpr::union(scan_a.clone(), scan_b_xy.clone()),
        RaExpr::diff(scan_a.clone(), scan_b_xy),
        RaExpr::diff(scan_a, RaExpr::project(scan_b, vec![Var::new("y")])),
    ] {
        let split = Budget::new().with_partitions(4);
        let fast = eval(&e, &db, &mut EvalCtx::new(&split)).expect("parallel eval");
        let slow = eval_baseline(&e, &db).expect("baseline eval");
        assert_eq!(fast, slow, "parallel engine disagrees on {e}");
        assert_eq!(fast.to_string(), slow.to_string(), "order differs on {e}");
        // And a second run is identical (thread interleaving must not leak
        // into results).
        assert_eq!(fast, eval(&e, &db, &mut EvalCtx::new(&split)).unwrap());
    }
}
