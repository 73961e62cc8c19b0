//! End-to-end execution of the paper corpus: every `corpus()` entry is
//! driven through classify → compile → eval on small random databases.
//!
//! The corpus was previously asserted for *classification* only; here the
//! paper-asserted flags are checked against [`classify`], compilation is
//! shown to succeed exactly for the wide-sense-evaluable entries, and the
//! compiled answers of every domain-independent entry agree with the
//! brute-force `dom_baseline` oracle (Thms. 8.4 + 9.4 + 9.5 on the
//! paper's own formulas).

mod common;

use rcsafe::relalg::govern::Stage;
use rcsafe::safety::corpus::{corpus, formula_of, random_db};
use rcsafe::safety::dom_baseline::eval_brute_force;
use rcsafe::safety::pipeline::{
    classify, compile_with, CompileOptions, PipelineError, SafetyClass,
};
use rcsafe::EvalCtx;

#[test]
fn classify_agrees_with_paper_flags() {
    for e in corpus() {
        let f = formula_of(&e);
        let class = classify(&f);
        match class {
            SafetyClass::Allowed => assert!(e.allowed, "{}: classified allowed", e.id),
            SafetyClass::Evaluable => {
                assert!(e.evaluable && !e.allowed, "{}: classified evaluable", e.id)
            }
            SafetyClass::WideSenseEvaluable => assert!(
                e.wide_sense && !e.evaluable,
                "{}: classified wide-sense",
                e.id
            ),
            SafetyClass::NotRecognized => {
                assert!(!e.wide_sense, "{}: classified not-recognized", e.id)
            }
        }
    }
}

#[test]
fn compilation_succeeds_exactly_for_wide_sense_entries() {
    for e in corpus() {
        let f = formula_of(&e);
        let outcome = compile_with(&f, CompileOptions::default());
        assert_eq!(
            outcome.is_ok(),
            e.wide_sense,
            "{} ({}): compile {:?}",
            e.id,
            e.text,
            outcome.as_ref().err()
        );
    }
}

#[test]
fn rejected_entries_report_the_classify_stage() {
    for e in corpus().into_iter().filter(|e| !e.wide_sense) {
        let f = formula_of(&e);
        let err =
            compile_with(&f, CompileOptions::default()).expect_err("unsafe entry must be rejected");
        assert!(
            matches!(err, PipelineError::NotSafe(_)),
            "{}: expected a safety rejection, got {err:?}",
            e.id
        );
        assert_eq!(err.stage(), Stage::Classify, "{}", e.id);
        assert!(err.budget().is_none(), "{}", e.id);
    }
}

#[test]
fn compiled_corpus_answers_match_dom_baseline() {
    let mut executed = 0usize;
    for e in corpus().into_iter().filter(|e| e.wide_sense) {
        let f = formula_of(&e);
        let c = compile_with(&f, CompileOptions::default()).expect("wide-sense entries compile");
        // Class inclusion: every wide-sense entry the paper asserts is also
        // domain independent, so active-domain answers are THE answers.
        assert!(e.domain_independent, "{}: inclusion violated", e.id);
        for seed in 0..4u64 {
            let db = random_db(&f, seed);
            let ours = c
                .run(&db, &mut EvalCtx::default())
                .expect("compiled corpus entry evaluates");
            let oracle = eval_brute_force(&c.original, &db);
            assert_eq!(
                ours, oracle,
                "{} ({}): seed {} diverges from dom_baseline",
                e.id, e.text, seed
            );
            executed += 1;
        }
    }
    assert!(
        executed >= 40,
        "too few corpus executions to be meaningful: {executed}"
    );
}
