//! Tracing properties: observation must not perturb the observed.
//!
//! For random evaluable formulas and databases:
//!
//! * traced and untraced evaluation return **bit-identical** relations and
//!   identical [`EvalStats`];
//! * the root span's subtree tuple total equals
//!   [`EvalStats::tuples_produced`], and its span count equals
//!   [`EvalStats::operators`] plus [`EvalStats::memo_hits`] (a memo-served
//!   subplan is one leaf span);
//! * every operator span's output cardinality equals the relation its
//!   subtree actually produced (checked by re-evaluating each subtree);
//! * the deterministic trace projection is identical under parallel and
//!   sequential evaluation (spawn denial via the fault injector).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_allowed_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::relalg::{eval, EvalCtx, OpSpan, Tracer};
use rcsafe::safety::corpus::random_db;
use rcsafe::safety::pipeline::{compile_with, CompileOptions};
use rcsafe::{Budget, Database, FaultInjector, Formula, RaExpr, Var};

fn allowed_sample(seed: u64) -> Formula {
    let cfg = GenConfig::default();
    rectified(&random_allowed_formula(
        &cfg,
        &[Var::new("x"), Var::new("y")],
        &mut StdRng::seed_from_u64(seed),
        3,
    ))
}

/// Walk the span tree and the expression tree in lockstep (they mirror by
/// construction) asserting each span's `rows_out` equals the cardinality
/// of the relation its subtree evaluates to.
fn check_span_cardinalities(
    span: &OpSpan,
    expr: &RaExpr,
    db: &Database,
) -> Result<(), TestCaseError> {
    let rel = eval(expr, db, &mut EvalCtx::default()).expect("subtree evaluates");
    prop_assert!(span.completed, "span {} incomplete on a clean run", span.op);
    prop_assert_eq!(
        span.rows_out,
        rel.len(),
        "span {} records {} rows, subtree produces {}",
        &span.op,
        span.rows_out,
        rel.len()
    );
    prop_assert!(
        span.raw_rows >= span.rows_out as u64,
        "span {}: raw {} < out {}",
        &span.op,
        span.raw_rows,
        span.rows_out
    );
    let children = expr.children();
    if span.cache_hit {
        // The subtree was traced where it was first evaluated.
        prop_assert!(
            span.children.is_empty(),
            "memo leaf {} has children",
            &span.op
        );
        return Ok(());
    }
    prop_assert_eq!(span.children.len(), children.len(), "arity of {}", &span.op);
    for (cs, ce) in span.children.iter().zip(children) {
        check_span_cardinalities(cs, ce, db)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tracing is a pure observer: identical relation, identical stats.
    #[test]
    fn traced_and_untraced_agree(seed in 0u64..4_000) {
        let f = allowed_sample(seed);
        prop_assume!(f.node_count() <= 60);
        let c = compile_with(&f, CompileOptions::default()).expect("allowed formulas compile");
        let db = random_db(&f, seed + 11);
        let mut plain_cx = EvalCtx::default();
        let plain = c.run(&db, &mut plain_cx).expect("untraced evaluation succeeds");
        let plain_stats = plain_cx.stats;
        let mut cx = EvalCtx::default().with_tracer(Tracer::on());
        let traced = c.run(&db, &mut cx).expect("traced evaluation succeeds");
        let traced_stats = cx.stats;
        prop_assert_eq!(&traced, &plain, "traced relation differs: {}", &f);
        prop_assert_eq!(traced.to_string(), plain.to_string());
        prop_assert_eq!(traced_stats, plain_stats, "stats differ: {}", &f);

        // The span tree totals reconcile with the stats counters.
        let root = cx.tracer.finish().expect("traced run leaves a root span");
        prop_assert_eq!(root.total_rows_out(), traced_stats.tuples_produced, "{}", &f);
        prop_assert_eq!(
            root.span_count() as u64,
            traced_stats.operators + traced_stats.memo_hits,
            "{}",
            &f
        );
        prop_assert_eq!(root.rows_out, plain.len(), "root cardinality: {}", &f);
        prop_assert!(root.completed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every span's recorded output cardinality is the true cardinality of
    /// the subtree it observed (re-evaluated independently).
    #[test]
    fn span_cardinalities_are_true(seed in 0u64..2_000) {
        let f = allowed_sample(seed);
        prop_assume!(f.node_count() <= 40);
        let c = compile_with(&f, CompileOptions::default()).expect("compiles");
        let db = random_db(&f, seed + 23);
        // Evaluate against the prepared database (missing predicates
        // declared) exactly as Compiled::run does internally.
        let mut prepared = db.clone();
        for (p, arity) in c.original.predicates() {
            prepared.declare(p, arity);
        }
        let mut cx = EvalCtx::default().with_tracer(Tracer::on());
        eval(&c.expr, &prepared, &mut cx).expect("evaluates");
        let root = cx.tracer.finish().expect("root span");
        check_span_cardinalities(&root, &c.expr, &prepared)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The deterministic projection is independent of the parallel path:
    /// denying thread spawns (sequential fallback) yields a byte-identical
    /// projection, and the relations and stats agree too.
    #[test]
    fn projection_is_parallel_invariant(seed in 0u64..2_000) {
        let f = allowed_sample(seed);
        prop_assume!(f.node_count() <= 60);
        let c = compile_with(&f, CompileOptions::default()).expect("compiles");
        let db = random_db(&f, seed + 31);

        let mut par_cx = EvalCtx::default().with_tracer(Tracer::on());
        let par = c.run(&db, &mut par_cx).expect("parallel-capable run succeeds");

        let fault = FaultInjector::new();
        fault.deny_thread_spawn(true);
        let budget = Budget::new().with_fault_injector(fault);
        let mut seq_cx = EvalCtx::new(&budget).with_tracer(Tracer::on());
        let seq = c.run(&db, &mut seq_cx).expect("sequential run succeeds");

        prop_assert_eq!(par, seq, "relations differ: {}", &f);
        prop_assert_eq!(par_cx.stats, seq_cx.stats, "stats differ: {}", &f);
        let par_proj = span_projection(&par_cx.tracer.finish().unwrap());
        let seq_proj = span_projection(&seq_cx.tracer.finish().unwrap());
        prop_assert_eq!(par_proj, seq_proj, "projections differ: {}", &f);
    }
}

/// The operator-level deterministic projection (what
/// `PipelineTrace::deterministic` prints for the eval tree).
fn span_projection(root: &OpSpan) -> String {
    fn go(s: &OpSpan, depth: usize, out: &mut String) {
        let ins: Vec<String> = s.rows_in.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!(
            "{}{} in=[{}] out={} raw={}\n",
            "  ".repeat(depth),
            s.op,
            ins.join(","),
            s.rows_out,
            s.raw_rows
        ));
        for c in &s.children {
            go(c, depth + 1, out);
        }
    }
    let mut out = String::new();
    go(root, 0, &mut out);
    out
}
