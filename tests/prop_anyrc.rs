//! Differential tests for the safe-pair evaluation of *arbitrary*
//! formulas (`compile_and_eval_any`): on finite databases the finite part
//! must equal both active-domain oracles — brute-force satisfaction and
//! the Dom-relativized algebra baseline — for every paper-corpus entry,
//! recognized-safe or rejected, and for random formulas; the infiniteness
//! flags must be sound (never set for domain-independent entries, always
//! set for the paper's introduction counterexamples on nonempty
//! databases); and the cached / shared / partitioned serving paths must
//! all agree with the one-shot evaluation (incremental refresh across
//! mutations is driven by the `serve_model` suite).

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rcsafe::formula::generate::{random_formula, GenConfig};
use rcsafe::formula::vars::rectified;
use rcsafe::safety::anyrc::compile_and_eval_any;
use rcsafe::safety::corpus::{corpus, formula_of, random_db, PaperFormula};
use rcsafe::safety::dom_baseline::{eval_brute_force, eval_dom};
use rcsafe::safety::pipeline::{CompileOptions, Compiled, SafetyClass};
use rcsafe::{
    classify, parse, serve, Budget, Database, Mode, PipelineError, PlanCache, Request, Schema,
    Value,
};

/// The whole corpus — including every classifier-rejected entry — matches
/// both active-domain oracles, and domain-independent entries never flag
/// infiniteness on any database.
#[test]
fn corpus_matches_both_oracles_and_di_entries_stay_finite() {
    let mut rejected_checked = 0;
    for entry in corpus() {
        let f = formula_of(&entry);
        for seed in [0u64, 3, 9] {
            let db = random_db(&formula_of(&entry), seed);
            let ans = compile_and_eval_any(entry.text, &db, CompileOptions::default())
                .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", entry.id));
            let brute = eval_brute_force(&f, &db);
            assert_eq!(
                ans.finite, brute,
                "{} (seed {seed}): finite part diverges from brute force",
                entry.id
            );
            let dom = eval_dom(&f, &db).expect("dom baseline evaluates");
            assert_eq!(
                ans.finite, dom,
                "{} (seed {seed}): finite part diverges from the Dom baseline",
                entry.id
            );
            if entry.domain_independent {
                assert!(
                    !ans.maybe_infinite && ans.per_variable.iter().all(|b| !b),
                    "{} is domain independent; no column may star (seed {seed})",
                    entry.id
                );
            }
            if ans.safe_pair {
                rejected_checked += 1;
            }
        }
    }
    assert!(
        rejected_checked >= 15,
        "the corpus must exercise the safe-pair path broadly (got {rejected_checked})"
    );
}

/// The paper's introduction counterexamples really are infinite on
/// nonempty databases, with the stars in exactly the unconstrained
/// columns.
#[test]
fn known_infinite_entries_flag_the_right_columns() {
    // intro-F: ¬P(x) holds for every x outside the database.
    let db = Database::from_facts("P(1)").unwrap();
    let ans = compile_and_eval_any("!P(x)", &db, CompileOptions::default()).unwrap();
    assert!(ans.maybe_infinite, "!P(x) must flag infiniteness");
    assert_eq!(ans.per_variable, vec![true]);

    // intro-G: with both sides nonempty, each column is unconstrained
    // whenever the other disjunct fires.
    let db = Database::from_facts("P(1)\nQ(2)").unwrap();
    let ans = compile_and_eval_any("P(x) | Q(y)", &db, CompileOptions::default()).unwrap();
    assert!(ans.maybe_infinite);
    assert_eq!(ans.per_variable, vec![true, true]);

    // sec21-uncurable: ∃y (P(x) ∨ Q(y)) — x is arbitrary once Q is
    // nonempty.
    let ans =
        compile_and_eval_any("exists y. (P(x) | Q(y))", &db, CompileOptions::default()).unwrap();
    assert!(ans.maybe_infinite);
    assert_eq!(ans.per_variable, vec![true]);

    // ... but on the empty database none of them can produce anything.
    let mut empty = Database::new();
    empty.declare(rcsafe::Symbol::intern("P"), 1);
    empty.declare(rcsafe::Symbol::intern("Q"), 1);
    for text in ["P(x) | Q(y)", "exists y. (P(x) | Q(y))"] {
        let ans = compile_and_eval_any(text, &empty, CompileOptions::default()).unwrap();
        assert!(
            ans.finite.is_empty(),
            "{text}: empty database, empty answer"
        );
        assert!(!ans.maybe_infinite, "{text}: nothing fires, nothing stars");
    }
}

/// The corpus's rejected-but-domain-independent entries (Example 6.3's G
/// and the Sec. 10 closing formula) go through the safe pair and still
/// never star: the extended-domain answer collapses to the active-domain
/// one.
#[test]
fn rejected_domain_independent_entries_never_star() {
    let targets: Vec<PaperFormula> = corpus()
        .into_iter()
        .filter(|e| ["ex6.3-G", "sec10-closing"].contains(&e.id))
        .collect();
    assert_eq!(targets.len(), 2, "both witnesses must be in the corpus");
    for entry in targets {
        assert_eq!(
            classify(&formula_of(&entry)),
            SafetyClass::NotRecognized,
            "{} must exercise the safe-pair path",
            entry.id
        );
        assert!(entry.domain_independent, "{}", entry.id);
        for seed in 0..6u64 {
            let db = random_db(&formula_of(&entry), seed);
            let ans = compile_and_eval_any(entry.text, &db, CompileOptions::default())
                .unwrap_or_else(|e| panic!("{} (seed {seed}): {e}", entry.id));
            assert!(ans.safe_pair, "{} (seed {seed})", entry.id);
            assert!(
                !ans.maybe_infinite,
                "{} (seed {seed}): domain independent, yet starred",
                entry.id
            );
        }
    }
}

/// Budget trips surface as errors, never panics — the safe pair doubles
/// the evaluation work, and both legs run under one shared budget.
#[test]
fn budget_trips_surface_as_errors() {
    let db = Database::from_facts("P(1)\nP(2)\nP(3)\nQ(4)\nQ(5)").unwrap();
    let opts = CompileOptions {
        budget: Budget::new().with_max_tuples(1),
        ..CompileOptions::default()
    };
    match compile_and_eval_any("P(x) | Q(y)", &db, opts) {
        Err(PipelineError::Budget(_)) => {}
        other => panic!("expected a budget trip, got {other:?}"),
    }
}

/// Forcing partitioned kernels does not change safe-pair answers.
#[test]
fn forced_partitions_agree_with_sequential() {
    for entry in corpus()
        .into_iter()
        .filter(|e| !e.evaluable && !e.wide_sense)
    {
        let db = random_db(&formula_of(&entry), 5);
        let plain = compile_and_eval_any(entry.text, &db, CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        let opts = CompileOptions {
            budget: Budget::new().with_partitions(3),
            ..CompileOptions::default()
        };
        let partitioned = compile_and_eval_any(entry.text, &db, opts)
            .unwrap_or_else(|e| panic!("{} (partitioned): {e}", entry.id));
        assert_eq!(plain.finite, partitioned.finite, "{}", entry.id);
        assert_eq!(plain.per_variable, partitioned.per_variable, "{}", entry.id);
    }
}

/// One-shot and cached serving return identical answers, and warm rounds
/// really serve from cache (`SharedPlanCache` is `PlanCache`: one cache,
/// exercised here cold and warm).
#[test]
fn cached_and_shared_serving_agree_with_one_shot() {
    for entry in corpus() {
        let db = random_db(&formula_of(&entry), 3);
        let one_shot = match compile_and_eval_any(entry.text, &db, CompileOptions::default()) {
            Ok(a) => a,
            Err(_) => continue, // nothing to compare against
        };
        let req = Request {
            mode: Mode::Any,
            ..Request::new(entry.text, CompileOptions::default())
        };
        let cache: PlanCache<Compiled> = PlanCache::new();
        let cold = serve(&req, &db, &cache).unwrap_or_else(|e| panic!("{} (cold): {e}", entry.id));
        assert!(!cold.result_cached, "{}: first round is cold", entry.id);
        let warm = serve(&req, &db, &cache).unwrap_or_else(|e| panic!("{} (warm): {e}", entry.id));
        assert!(
            warm.plan_cached && warm.result_cached,
            "{}: second round must serve from cache",
            entry.id
        );
        for (label, got) in [("cached cold", &cold), ("cached warm", &warm)] {
            assert_eq!(got.relation, one_shot.finite, "{} ({label})", entry.id);
            assert_eq!(
                got.maybe_infinite(),
                one_shot.maybe_infinite,
                "{} ({label})",
                entry.id
            );
            assert_eq!(
                got.per_variable, one_shot.per_variable,
                "{} ({label})",
                entry.id
            );
        }
    }
}

/// Domain independence certified by construction: a random *allowed*
/// formula `A` (DI by the paper's theorems) is wrapped into the
/// Sec. 10-closing shape `∀w ((A ∧ Q0(w)) ∨ (A ∧ ¬R0(w)))` — logically
/// `A ∧ ∀w (Q0(w) ∨ ¬R0(w))`, a conjunction of DI formulas and
/// therefore DI, but the repeated-`A` disjunction defeats the class
/// analysis exactly as the corpus notes for `sec10-closing`. The safe
/// pair must match the oracle and must never flag infiniteness.
#[test]
fn constructed_di_formulas_never_star() {
    use rcsafe::formula::generate::random_allowed_formula;
    use rcsafe::{Formula, Term, Var};

    let mut exercised = 0;
    for seed in 0..200u64 {
        let cfg = GenConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_allowed_formula(&cfg, &[Var::new("x"), Var::new("y")], &mut rng, 2);
        let w = || Term::var("w0");
        // Deliberately NOT rectified: the two copies of `a` live in parallel
        // disjuncts, so their coinciding binder names are legal surface
        // syntax, whereas rectifying the duplicate would mint `#`-suffixed
        // names the lexer refuses — and the entry point takes query *text*.
        let f = Formula::forall(
            Var::new("w0"),
            Formula::or(vec![
                Formula::and(vec![a.clone(), Formula::atom("Q0", vec![w()])]),
                Formula::and(vec![
                    a.clone(),
                    Formula::not(Formula::atom("R0", vec![w()])),
                ]),
            ]),
        );
        if classify(&f) != SafetyClass::NotRecognized || f.node_count() > 60 {
            continue;
        }
        let text = f.to_string();
        let schema = Schema::infer(&f).expect("consistent");
        let mut domain: Vec<Value> = (1..=3).map(Value::int).collect();
        for c in f.constants() {
            if !domain.contains(&c) {
                domain.push(c);
            }
        }
        for trial in 0..2u64 {
            let db = Database::random(
                &schema,
                &domain,
                5,
                &mut StdRng::seed_from_u64(seed * 17 + trial),
            );
            let ans = compile_and_eval_any(&text, &db, CompileOptions::default())
                .unwrap_or_else(|e| panic!("{f}: {e}"));
            assert!(ans.safe_pair, "{f}");
            assert!(
                !ans.maybe_infinite,
                "seed {seed} trial {trial}: DI formula starred: {f}"
            );
            assert_eq!(
                ans.finite,
                eval_brute_force(&f, &db),
                "seed {seed} trial {trial}: {f}"
            );
        }
        exercised += 1;
        if exercised >= 25 {
            break;
        }
    }
    assert!(
        exercised >= 5,
        "the constructed certificates must land outside the recognized \
         classes often enough to exercise the DI guarantee (got {exercised})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Random formulas — safe and unsafe alike — match the brute-force
    /// active-domain oracle through the safe pair.
    #[test]
    fn random_formulas_match_the_oracle(seed in 0u64..4_000) {
        let cfg = GenConfig { max_depth: 3, ..GenConfig::default() };
        let f = rectified(&random_formula(&cfg, &mut StdRng::seed_from_u64(seed)));
        prop_assume!(f.node_count() <= 40);
        let text = f.to_string();
        prop_assume!(parse(&text).is_ok());
        let schema = Schema::infer(&f).expect("generated formulas are consistent");
        let mut domain: Vec<Value> = (1..=3).map(Value::int).collect();
        for c in f.constants() {
            if !domain.contains(&c) {
                domain.push(c);
            }
        }
        for trial in 0..2u64 {
            let db = Database::random(
                &schema,
                &domain,
                5,
                &mut StdRng::seed_from_u64(seed * 31 + trial),
            );
            let ans = match compile_and_eval_any(&text, &db, CompileOptions::default()) {
                Ok(a) => a,
                Err(e) => return Err(TestCaseError::fail(format!("{f}: {e}"))),
            };
            let oracle = eval_brute_force(&f, &db);
            prop_assert_eq!(
                &ans.finite, &oracle,
                "seed {} trial {}: {}", seed, trial, &f
            );
        }
    }
}
