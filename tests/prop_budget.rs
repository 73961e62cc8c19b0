//! Budget-governance properties: a governed run returns **exactly** the
//! ungoverned answer or a structured budget error — never a differing or
//! truncated relation — and every pipeline stage attributes its own trips.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_allowed_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::relalg::govern::{Resource, Stage};
use rcsafe::relalg::{EvalCtx, StageTracer};
use rcsafe::safety::corpus::random_db;
use rcsafe::safety::genify::{self, GenifyError};
use rcsafe::safety::pipeline::{compile_with, CompileCtx, CompileOptions, PipelineError};
use rcsafe::safety::ranf::{self, ranf, RanfError};
use rcsafe::safety::translate::{self, TranslateError};
use rcsafe::{parse, Budget, Database, FaultInjector, Formula, PipelineTrace, Var};
use rcsafe::{serve, NoCache, Request};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Options whose budget caps formula/expression size at `nodes`.
fn node_capped(nodes: u64) -> CompileOptions {
    CompileOptions {
        budget: Budget::new().with_max_nodes(nodes),
        ..CompileOptions::default()
    }
}

/// Run one compile stage untraced under a node cap of `nodes`.
fn capped_stage<T>(nodes: u64, stage: impl FnOnce(&mut CompileCtx<'_>) -> T) -> T {
    stage(&mut CompileCtx::new(
        &node_capped(nodes),
        None,
        &mut StageTracer::off(),
    ))
}

fn allowed_sample(seed: u64) -> Formula {
    let cfg = GenConfig::default();
    rectified(&random_allowed_formula(
        &cfg,
        &[Var::new("x"), Var::new("y")],
        &mut StdRng::seed_from_u64(seed),
        3,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random formulas, databases, and tuple budgets: the governed
    /// evaluation either equals the ungoverned result exactly or fails
    /// with a budget error — never a differing relation.
    #[test]
    fn governed_eval_is_exact_or_error(seed in 0u64..4_000) {
        let cap = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 40;
        let f = allowed_sample(seed);
        prop_assume!(f.node_count() <= 60);
        let c = compile_with(&f, CompileOptions::default()).expect("allowed formulas compile");
        let db = random_db(&f, seed + 17);
        let full = c.run(&db, &mut EvalCtx::default()).expect("ungoverned evaluation succeeds");
        let budget = Budget::new().with_max_tuples(cap);
        match c.run(&db, &mut EvalCtx::new(&budget)) {
            Ok(rel) => prop_assert_eq!(rel, full, "governed result differs: {}", &f),
            Err(e) => {
                let b = match e {
                    rcsafe::relalg::EvalError::Budget(b) => b,
                    other => return Err(TestCaseError::fail(format!("non-budget error: {other}"))),
                };
                prop_assert_eq!(b.stage, Stage::Eval);
                prop_assert_eq!(b.resource, Resource::Tuples);
                prop_assert!(b.used > b.limit, "trip without overconsumption");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same property through the full traced `serve` pipeline with a
    /// random node cap: exact agreement or a stage-attributed trip, and
    /// the trace's failed span names exactly the stage the error blames.
    #[test]
    fn governed_pipeline_is_exact_or_error(seed in 0u64..4_000) {
        let nodes = 1 + seed.wrapping_mul(0x2545_F491_4F6C_DD1D) % 199;
        let f = allowed_sample(seed);
        prop_assume!(f.node_count() <= 60);
        let text = f.to_string();
        let db = random_db(&f, seed + 29);
        let full = match serve(&Request::new(&text, CompileOptions::default()), &db, NoCache) {
            Ok(out) => out.relation,
            Err(e) => return Err(TestCaseError::fail(format!("ungoverned failed: {e}"))),
        };
        let trace = RefCell::new(PipelineTrace::default());
        let req = Request {
            trace: Some(&trace),
            ..Request::new(&text, node_capped(nodes))
        };
        match serve(&req, &db, NoCache) {
            Ok(out) => {
                prop_assert_eq!(out.relation, full, "budgeted result differs: {}", &f);
                prop_assert_eq!(trace.borrow().failed_stage(), None);
            }
            Err(PipelineError::Budget(b)) => {
                prop_assert_eq!(b.resource, Resource::Nodes);
                prop_assert!(
                    matches!(b.stage, Stage::Genify | Stage::Ranf | Stage::Translate),
                    "node trips come from the rewriting stages, got {}", b.stage
                );
                prop_assert_eq!(trace.borrow().failed_stage(), Some(b.stage));
            }
            Err(other) => return Err(TestCaseError::fail(format!("non-budget error: {other}"))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A cancelled evaluation returns promptly (the checkpoint interval
    /// bounds the drain) and reports the cancellation.
    #[test]
    fn cancelled_eval_returns_promptly(seed in 0u64..2_000) {
        let f = allowed_sample(seed);
        prop_assume!(f.node_count() <= 60);
        let c = compile_with(&f, CompileOptions::default()).expect("compiles");
        let db = random_db(&f, seed + 41);
        let budget = Budget::new();
        budget.cancel_handle().cancel();
        let started = Instant::now();
        let err = c
            .run(&db, &mut EvalCtx::new(&budget))
            .expect_err("pre-cancelled run must not produce a relation");
        prop_assert!(started.elapsed() < Duration::from_secs(5));
        match err {
            rcsafe::relalg::EvalError::Budget(b) => {
                prop_assert_eq!(b.resource, Resource::Cancelled);
                prop_assert_eq!(b.stage, Stage::Eval);
            }
            other => return Err(TestCaseError::fail(format!("non-budget error: {other}"))),
        }
    }
}

// ------------------------------------------------- per-stage trip tests --

/// genify: the step-1d rewrite duplicates subformulas; a tiny node cap
/// trips with the genify stage attributed, and no formula is returned.
#[test]
fn genify_budget_trips_with_stage_attribution() {
    let f = parse("exists x. ((P(x, y) | Q(y)) & !R(y))").unwrap();
    let err = capped_stage(5, |cx| genify::stage(&f, cx)).expect_err("cap of 5 nodes must trip");
    match err {
        GenifyError::Budget(b) => {
            assert_eq!(b.stage, Stage::Genify);
            assert_eq!(b.resource, Resource::Nodes);
            assert_eq!(b.limit, 5);
            assert!(b.used > 5);
        }
        other => panic!("expected a genify budget trip, got {other:?}"),
    }
}

/// ranf: distributing ∧ over 20 binary disjunctions is exponential; the
/// node cap trips with the ranf stage attributed.
#[test]
fn ranf_budget_trips_with_stage_attribution() {
    let parts: Vec<String> = (0..20).map(|i| format!("(A{i}(x) | B{i}(x))")).collect();
    let f = parse(&parts.join(" & ")).unwrap();
    let err = capped_stage(1_000, |cx| ranf::stage(&f, cx))
        .expect_err("exponential distribution must trip");
    match err {
        RanfError::Budget(b) => {
            assert_eq!(b.stage, Stage::Ranf);
            assert_eq!(b.resource, Resource::Nodes);
            assert_eq!(b.limit, 1_000);
            // The count reached at the trip, not a saturated sentinel.
            assert!(b.limit < b.used && b.used < u64::MAX, "used {}", b.used);
        }
        other => panic!("expected a ranf budget trip, got {other:?}"),
    }
}

/// ranf: a trip in T11 reports the size of the formula the distribution
/// would build, not how many disjuncts it would have. A conjunction of k
/// binary disjunctions of atoms, capped at its own node count, trips with
/// `used` equal to the node count of the distributed `Or` (81 for k = 4,
/// which holds 16 disjuncts).
#[test]
fn ranf_trip_reports_the_distributed_node_count() {
    for k in 4..=8 {
        let pair = |i: usize| (format!("A{i}(x)"), format!("B{i}(x)"));
        let parts: Vec<String> = (0..k)
            .map(|i| {
                let (a, b) = pair(i);
                format!("({a} | {b})")
            })
            .collect();
        let f = parse(&parts.join(" & ")).unwrap();
        let distributed: Vec<String> = (0..1usize << k)
            .map(|bits| {
                let picks: Vec<String> = (0..k)
                    .map(|i| {
                        let (a, b) = pair(i);
                        if bits >> i & 1 == 0 {
                            a
                        } else {
                            b
                        }
                    })
                    .collect();
                format!("({})", picks.join(" & "))
            })
            .collect();
        let built = parse(&distributed.join(" | ")).unwrap().node_count() as u64;
        if k == 4 {
            assert_eq!(built, 81);
        }
        let cap = f.node_count() as u64;
        let err = capped_stage(cap, |cx| ranf::stage(&f, cx))
            .expect_err("distribution beyond the input size must trip");
        match err {
            RanfError::Budget(b) => {
                assert_eq!(b.stage, Stage::Ranf);
                assert_eq!(b.resource, Resource::Nodes);
                assert_eq!(b.limit, cap);
                assert_eq!(b.used, built, "k = {k}");
            }
            other => panic!("expected a ranf budget trip, got {other:?}"),
        }
    }
}

/// translate: every emitted operator counts against the node cap; a RANF
/// formula with more operators than the cap trips with translate
/// attributed (ranf itself fits comfortably).
#[test]
fn translate_budget_trips_with_stage_attribution() {
    let f = parse("P(x, y) & Q(x) & R(y) & S(x, y)").unwrap();
    let r = ranf(&f).expect("allowed and cheap to normalize");
    let err =
        capped_stage(2, |cx| translate::stage(&r, cx)).expect_err("cap of 2 operators must trip");
    match err {
        TranslateError::Budget(b) => {
            assert_eq!(b.stage, Stage::Translate);
            assert_eq!(b.resource, Resource::Nodes);
            assert_eq!(b.limit, 2);
            assert_eq!(b.used, 3);
        }
        other => panic!("expected a translate budget trip, got {other:?}"),
    }
}

/// eval: the tuple cap trips with the eval stage attributed, the error
/// reports consumption, and no truncated relation escapes.
#[test]
fn eval_budget_trips_with_stage_attribution() {
    let db = Database::from_facts("P(1, 2)\nP(2, 3)\nP(3, 3)\nQ(2)\nQ(3)").unwrap();
    let c = compile_with(&parse("P(x, y) & Q(y)").unwrap(), CompileOptions::default()).unwrap();
    let full = c.run(&db, &mut EvalCtx::default()).unwrap();
    assert!(!full.is_empty());
    let budget = Budget::new().with_max_tuples(1);
    let err = c
        .run(&db, &mut EvalCtx::new(&budget))
        .expect_err("a single-tuple budget must trip");
    match err {
        rcsafe::relalg::EvalError::Budget(b) => {
            assert_eq!(b.stage, Stage::Eval);
            assert_eq!(b.resource, Resource::Tuples);
            assert_eq!(b.limit, 1);
            assert!(b.used > 1);
            // The shared counter holds what was charged; the report may add
            // a kernel's uncharged probe, so it never reads less.
            assert!(budget.tuples_used() <= b.used);
        }
        other => panic!("expected an eval budget trip, got {other:?}"),
    }
}

/// The wall-clock deadline is honored across the whole pipeline: an
/// already-expired deadline trips at the first checkpoint of the earliest
/// stage that runs.
#[test]
fn expired_deadline_trips_before_any_work() {
    let db = Database::from_facts("P(1, 2)").unwrap();
    let budget = Budget::new().with_deadline(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    let opts = CompileOptions {
        budget,
        ..CompileOptions::default()
    };
    let err = serve(&Request::new("P(x, y) & x != y", opts), &db, NoCache)
        .expect_err("expired deadline must trip");
    let b = *err.budget().expect("a budget report");
    assert_eq!(b.resource, Resource::WallClock);
    assert_eq!(err.stage(), Stage::Genify, "first governed stage trips");
}

/// Mid-eval cancellation via the fault injector: the run fails with a
/// cancellation report and a later fresh-budget run still succeeds
/// (the engine stays usable).
#[test]
fn mid_eval_cancellation_leaves_engine_usable() {
    let db = Database::from_facts("P(1, 2)\nP(2, 3)\nP(3, 3)\nQ(2)\nQ(3)").unwrap();
    let c = compile_with(&parse("P(x, y) & Q(y)").unwrap(), CompileOptions::default()).unwrap();
    let fault = FaultInjector::new();
    fault.cancel_after_checkpoints(0);
    let budget = Budget::new().with_fault_injector(fault);
    let err = c
        .run(&db, &mut EvalCtx::new(&budget))
        .expect_err("forced cancellation must trip");
    match err {
        rcsafe::relalg::EvalError::Budget(b) => assert_eq!(b.resource, Resource::Cancelled),
        other => panic!("expected a cancellation, got {other:?}"),
    }
    // Fresh budget: the same compiled query runs to completion.
    let again = c
        .run(&db, &mut EvalCtx::default())
        .expect("engine usable after cancellation");
    assert!(!again.is_empty());
}
