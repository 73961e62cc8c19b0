//! The delta-vs-full differential suite pinning incremental view
//! maintenance (`rc_relalg::ivm`, DESIGN.md §14): a stale cached result
//! *refreshed* by delta propagation must be indistinguishable from a full
//! re-evaluation — the answer relations are identical (and canonical, so
//! byte-identical), refresh traces report the same final cardinality as
//! evaluation traces, and tight budgets trip on both paths rather than
//! letting a small delta smuggle a large answer through.
//!
//! Coverage: the whole paper corpus under randomized delta streams,
//! generated allowed formulas under generated deltas, delete-then-reinsert
//! round trips, and empty deltas and deltas touching unreferenced tables.
//! Randomized mutate/serve interleavings (forced partitions, every store,
//! both modes) live in the `serve_model` suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsafe::formula::generate::{random_allowed_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::relalg::{eval, refresh, EvalCtx, EvalStats, MaintainedView};
use rcsafe::safety::corpus::{corpus, formula_of};
use rcsafe::safety::pipeline::{compile_and_eval_cached, CompileOptions, Compiled, PipelineError};
use rcsafe::{
    serve, Budget, Database, Formula, NoCache, PlanCache, RaExpr, Request, Schema, Served, Term,
    Tracer, Value, Var,
};

/// Uncached serving: the full compile-and-evaluate reference.
fn uncached(text: &str, db: &Database, opts: CompileOptions) -> Result<Served, PipelineError> {
    serve(&Request::new(text, opts), db, NoCache)
}

/// A reproducible non-empty database over a formula's inferred schema.
fn db_for(f: &Formula, seed: u64) -> (Database, Schema, Vec<Value>) {
    let schema = Schema::infer(f).expect("consistent arities");
    let mut domain: Vec<Value> = (1..=4).map(Value::int).collect();
    for c in f.constants() {
        if !domain.contains(&c) {
            domain.push(c);
        }
    }
    let db = Database::random(&schema, &domain, 6, &mut StdRng::seed_from_u64(seed));
    (db, schema, domain)
}

/// A small random delta over the schema: fresh inserts from the domain,
/// plus deletes biased toward facts that are actually present (so the
/// minus side of the Δ-rules is genuinely exercised, not vacuous).
fn random_delta(db: &Database, schema: &Schema, domain: &[Value], rng: &mut StdRng) -> String {
    let preds: Vec<_> = schema
        .predicates()
        .into_iter()
        .filter(|&(_, ar)| ar > 0)
        .collect();
    if preds.is_empty() || domain.is_empty() {
        return String::new();
    }
    let mut lines = Vec::new();
    for _ in 0..rng.gen_range(1usize..=4) {
        let (p, ar) = preds[rng.gen_range(0..preds.len())];
        let delete = rng.gen_bool(0.4);
        let row: Vec<String> = if delete && rng.gen_bool(0.7) {
            // Delete a fact that exists, when there is one.
            match db.relation(p).filter(|r| !r.is_empty()) {
                Some(r) => {
                    let row = r.row(rng.gen_range(0..r.len()));
                    row.iter().map(|v| v.to_string()).collect()
                }
                None => (0..ar)
                    .map(|_| domain[rng.gen_range(0..domain.len())].to_string())
                    .collect(),
            }
        } else {
            (0..ar)
                .map(|_| domain[rng.gen_range(0..domain.len())].to_string())
                .collect()
        };
        let sign = if delete { "-" } else { "" };
        lines.push(format!("{sign}{p}({})", row.join(", ")));
    }
    lines.join("\n")
}

/// Serve `text` through the cache and check the answer against an
/// uncached full compile-and-eval of the same text on the same database.
/// Returns whether the serve was a delta refresh.
fn serve_and_check(
    text: &str,
    db: &Database,
    cache: &mut PlanCache<Compiled>,
    ctx: &str,
) -> Option<bool> {
    let cached = match compile_and_eval_cached(text, db, CompileOptions::default(), cache) {
        Ok(out) => out,
        Err(_) => return None, // rejected formulas never enter the cache path
    };
    let full = uncached(text, db, CompileOptions::default())
        .unwrap_or_else(|e| panic!("{ctx}: cached path served {text:?} but full eval failed: {e}"));
    assert_eq!(
        cached.relation, full.relation,
        "{ctx}: refresh ≡ full re-evaluation violated for {text:?}"
    );
    if cached.result_refreshed {
        assert!(
            cached.result_cached,
            "{ctx}: result_refreshed implies result_cached"
        );
    }
    Some(cached.result_refreshed)
}

/// The whole paper corpus under three rounds of randomized deltas each:
/// every post-mutation serve must equal a from-scratch evaluation, and
/// the suite as a whole must actually exercise the refresh path (not
/// just fall back everywhere).
#[test]
fn corpus_delta_refresh_matches_full_reevaluation() {
    let mut refreshed = 0u64;
    let mut served = 0u64;
    for entry in corpus() {
        let f = formula_of(&entry);
        let (mut db, schema, domain) = db_for(&f, 11);
        let mut cache: PlanCache<Compiled> = PlanCache::new();
        if serve_and_check(entry.text, &db, &mut cache, entry.id).is_none() {
            continue; // rejected by the safety pipeline — nothing cached
        }
        let mut rng = StdRng::seed_from_u64(0x1704 ^ entry.text.len() as u64);
        for round in 0..3 {
            let delta = random_delta(&db, &schema, &domain, &mut rng);
            db.apply_delta(&delta)
                .expect("generated deltas are well-formed");
            let ctx = format!("{} round {round}", entry.id);
            if let Some(was_refresh) = serve_and_check(entry.text, &db, &mut cache, &ctx) {
                served += 1;
                refreshed += was_refresh as u64;
            }
        }
        let stats = cache.stats();
        assert!(
            stats.refreshed_results <= stats.stale_results,
            "{}: every refresh starts from a stale hit ({stats:?})",
            entry.id
        );
    }
    assert!(served >= 36, "corpus too small to be meaningful ({served})");
    assert!(
        refreshed >= 20,
        "the corpus stream must exercise the refresh path broadly (got {refreshed}/{served})"
    );
}

/// Generated allowed formulas under generated delta streams: same
/// differential, fresh shapes every seed instead of the fixed corpus.
#[test]
fn generated_formula_and_delta_streams_agree() {
    let cfg = GenConfig::default();
    let mut refreshed = 0u64;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = rectified(&random_allowed_formula(
            &cfg,
            &[Var::new("x"), Var::new("y")],
            &mut rng,
            3,
        ));
        let text = f.to_string();
        let (mut db, schema, domain) = db_for(&f, seed ^ 0x5eed);
        let mut cache: PlanCache<Compiled> = PlanCache::new();
        if serve_and_check(&text, &db, &mut cache, "generated cold").is_none() {
            continue;
        }
        for round in 0..4 {
            let delta = random_delta(&db, &schema, &domain, &mut rng);
            db.apply_delta(&delta)
                .expect("generated deltas are well-formed");
            let ctx = format!("seed {seed} round {round}");
            if let Some(was_refresh) = serve_and_check(&text, &db, &mut cache, &ctx) {
                refreshed += was_refresh as u64;
            }
        }
    }
    assert!(
        refreshed >= 25,
        "generated streams must exercise the refresh path (got {refreshed})"
    );
}

/// Delete-then-reinsert round trip: deleting facts and putting them back
/// in a later delta must refresh the cached result back to its original
/// answer — the two-link journal chain composes to a near-no-op and the
/// refreshed relation is byte-identical to the first cold serve.
#[test]
fn delete_then_reinsert_round_trips_through_the_cache() {
    let mut db = Database::from_facts("P(1, 2)\nP(2, 3)\nP(3, 3)\nQ(3)").unwrap();
    let mut cache: PlanCache<Compiled> = PlanCache::new();
    let text = "P(x, y) & Q(y)";
    let cold = compile_and_eval_cached(text, &db, CompileOptions::default(), &mut cache).unwrap();
    assert_eq!(cold.relation.len(), 2);

    db.apply_delta("-P(2, 3)\n-Q(3)").unwrap();
    let shrunk = compile_and_eval_cached(text, &db, CompileOptions::default(), &mut cache).unwrap();
    assert!(
        shrunk.result_refreshed,
        "delete delta must refresh, not recompute"
    );
    assert_eq!(shrunk.relation.len(), 0);

    db.apply_delta("P(2, 3)\nQ(3)").unwrap();
    let restored =
        compile_and_eval_cached(text, &db, CompileOptions::default(), &mut cache).unwrap();
    assert!(restored.result_refreshed, "reinsert delta must refresh too");
    assert_eq!(
        restored.relation, cold.relation,
        "delete-then-reinsert must restore the original answer exactly"
    );
    assert_eq!(cache.stats().refreshed_results, 2);
}

/// Empty deltas keep results warm verbatim; deltas touching only tables
/// the query never reads refresh at zero delta cost (the cost gate's
/// `relevant == 0` fast path) without changing the answer.
#[test]
fn empty_and_unreferenced_deltas_keep_results_warm() {
    let mut db = Database::from_facts("P(1)\nP(2)\nR(7, 7)").unwrap();
    let mut cache: PlanCache<Compiled> = PlanCache::new();
    let cold = compile_and_eval_cached("P(x)", &db, CompileOptions::default(), &mut cache).unwrap();
    let v0 = db.version();

    // A net no-op delta: version does not move, the verbatim entry serves.
    let noop = db.apply_delta("P(1)\n-P(9)").unwrap();
    assert!(noop.is_empty());
    assert_eq!(db.version(), v0);
    let warm = compile_and_eval_cached("P(x)", &db, CompileOptions::default(), &mut cache).unwrap();
    assert!(warm.result_cached && !warm.result_refreshed);

    // A delta touching only `R`, which `P(x)` never reads: the version
    // moves, so the entry is stale — but the refresh is free (zero
    // relevant delta rows) and the answer is unchanged.
    db.apply_delta("R(8, 8)\n-R(7, 7)").unwrap();
    assert_ne!(db.version(), v0);
    let refreshed =
        compile_and_eval_cached("P(x)", &db, CompileOptions::default(), &mut cache).unwrap();
    assert!(
        refreshed.result_refreshed,
        "an unreferenced-table delta must refresh, never recompute"
    );
    assert_eq!(refreshed.relation, cold.relation);
    assert_eq!(
        refreshed.stats.tuples_produced, 0,
        "no delta rows touch the view — the refresh walk produces nothing"
    );
    let stats = cache.stats();
    assert_eq!((stats.stale_results, stats.refreshed_results), (1, 1));
}

/// Budget parity: a tuple budget too small for the answer trips the
/// refresh-serve path exactly as it trips a full evaluation — and the
/// trip leaves the cached entry untouched, so a later unbounded serve
/// still refreshes correctly.
#[test]
fn budget_trips_agree_between_refresh_and_full_paths() {
    let mut db = Database::from_facts("P(1)\nP(2)\nP(3)").unwrap();
    let mut cache: PlanCache<Compiled> = PlanCache::new();
    let text = "P(x)";
    let cold = compile_and_eval_cached(text, &db, CompileOptions::default(), &mut cache).unwrap();
    assert_eq!(cold.relation.len(), 3);
    db.apply_delta("P(4)").unwrap();

    let tight = CompileOptions {
        budget: Budget::new().with_max_tuples(2),
        ..CompileOptions::default()
    };
    let via_refresh = compile_and_eval_cached(text, &db, tight.clone(), &mut cache);
    let via_full = uncached(text, &db, tight);
    assert!(
        matches!(via_refresh, Err(PipelineError::Budget(_))),
        "refresh path must trip the tuple budget: {via_refresh:?}"
    );
    assert!(
        matches!(via_full, Err(PipelineError::Budget(_))),
        "full path must trip the tuple budget: {via_full:?}"
    );
    assert_eq!(
        cache.stats().refreshed_results,
        0,
        "a tripped refresh must not install anything"
    );

    // The abandoned refresh left the view intact: an unbounded serve now
    // refreshes and matches a from-scratch evaluation.
    let ok = compile_and_eval_cached(text, &db, CompileOptions::default(), &mut cache).unwrap();
    assert!(ok.result_refreshed);
    assert_eq!(
        ok.relation,
        uncached(text, &db, CompileOptions::default())
            .unwrap()
            .relation
    );
}

/// Refresh traces and evaluation traces agree on the final cardinality:
/// the root span of a traced refresh reports exactly the rows a traced
/// full evaluation reports, and carries the `ivm=refresh` annotation.
#[test]
fn refresh_traces_report_the_same_final_cardinality_as_full_eval() {
    let mut db = Database::from_facts("P(1)\nP(2)\nP(3)\nQ(2)\nQ(5)").unwrap();
    let x = Term::var("x");
    let expr = RaExpr::join(RaExpr::scan("P", vec![x]), RaExpr::scan("Q", vec![x]));
    let budget = Budget::new();
    let mut cx = EvalCtx::new(&budget);
    eval(&expr, &db, &mut cx).unwrap();
    let view = MaintainedView::recorded(&mut cx, db.version()).unwrap();

    let delta = db.apply_delta("P(5)\n-Q(2)\nQ(3)").unwrap();
    let mut tr = Tracer::on();
    let mut rstats = EvalStats::default();
    let (view2, refreshed) =
        refresh(&view, &delta, db.version(), &mut rstats, &budget, &mut tr).unwrap();
    let root = tr.finish().expect("refresh span tree");

    let mut full_cx = EvalCtx::new(&budget).with_tracer(Tracer::on());
    let full = eval(&expr, &db, &mut full_cx).unwrap();
    let full_root = full_cx.tracer.finish().expect("eval span tree");

    assert_eq!(refreshed, full, "refreshed relation ≠ full re-evaluation");
    assert_eq!(view2.result(), &full);
    assert_eq!(
        root.rows_out, full_root.rows_out,
        "trace final cardinalities diverge between refresh and eval"
    );
    assert_eq!(root.rows_out, full.len());
    let note = root
        .ivm
        .as_ref()
        .expect("refresh root span carries an ivm note");
    assert_eq!(note.mode, "refresh");
}
