//! Every formula that appears in the paper, as a named, machine-checkable
//! corpus.
//!
//! Each entry records where it appears, its surface syntax, and the
//! classifications the paper asserts (or implies) for it. The experiment
//! harness prints these as the classification table, and the integration
//! suite asserts every expectation.

use crate::pipeline::{serve, CompileOptions, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rc_formula::ast::Formula;
use rc_formula::{Schema, Value};
use rc_relalg::{Database, NoCache};
use std::cell::RefCell;

/// One formula from the paper.
#[derive(Clone, Copy, Debug)]
pub struct PaperFormula {
    /// Stable identifier (section/example number).
    pub id: &'static str,
    /// Where in the paper it appears.
    pub source: &'static str,
    /// The formula, in this crate's ASCII surface syntax.
    pub text: &'static str,
    /// Paper-asserted: is it evaluable (strict sense)?
    pub evaluable: bool,
    /// Paper-asserted: is it allowed?
    pub allowed: bool,
    /// Paper-asserted: is it wide-sense evaluable (after Alg. A.1)?
    pub wide_sense: bool,
    /// Paper-asserted: is it domain independent (definite)?
    pub domain_independent: bool,
    /// Commentary.
    pub note: &'static str,
}

/// The full corpus.
pub fn corpus() -> Vec<PaperFormula> {
    vec![
        PaperFormula {
            id: "intro-F",
            source: "Sec. 1",
            text: "!P(x)",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: false,
            note: "holds for arbitrary x not in the database",
        },
        PaperFormula {
            id: "intro-G",
            source: "Sec. 1",
            text: "P(x) | Q(y)",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: false,
            note: "arbitrary y when P(x) holds, and vice versa",
        },
        PaperFormula {
            id: "sec21-curable",
            source: "Sec. 2.1",
            text: "exists y. (P(x) | Q(x, y))",
            evaluable: true,
            allowed: false,
            wide_sense: true,
            domain_independent: true,
            note: "curable: ≡ P(x) ∨ ∃y Q(x, y)",
        },
        PaperFormula {
            id: "sec21-uncurable",
            source: "Sec. 2.1",
            text: "exists y. (P(x) | Q(y))",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: false,
            note: "uncurable: x unconstrained when Q nonempty",
        },
        PaperFormula {
            id: "sec21-cured",
            source: "Sec. 2.1",
            text: "P(x) | exists y. Q(x, y)",
            evaluable: true,
            allowed: true,
            wide_sense: true,
            domain_independent: true,
            note: "F'(x): the rewritten form with the naive translation correct",
        },
        PaperFormula {
            id: "ex6.1-before",
            source: "Example 6.1",
            text: "exists w. (T(w) & ((exists x. A(x)) | B(w)))",
            evaluable: true,
            allowed: true,
            wide_sense: true,
            domain_independent: true,
            note: "∃xA(x) ∨ B in an allowed context",
        },
        PaperFormula {
            id: "ex6.1-after",
            source: "Example 6.1",
            text: "exists w. (T(w) & exists x. (A(x) | B(w)))",
            evaluable: true,
            allowed: false,
            wide_sense: true,
            domain_independent: true,
            note: "E8 moved B under ∃x: allowed lost, evaluable kept",
        },
        PaperFormula {
            id: "ex5.1-a",
            source: "Example 5.1",
            text: "P(x, y) | Q(y)",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: false,
            note: "con(x, A) holds but gen(x, A) does not",
        },
        PaperFormula {
            id: "ex5.1-b",
            source: "Example 5.1",
            text: "!Q(y)",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: false,
            note: "con(x, A) holds (x not free); gen(y) fails",
        },
        PaperFormula {
            id: "ex5.2-F",
            source: "Example 5.2",
            text: "exists x. ((P(x, y) | Q(y)) & !R(y))",
            evaluable: true,
            allowed: false,
            wide_sense: true,
            domain_independent: true,
            note: "evaluable but not allowed",
        },
        PaperFormula {
            id: "ex5.2-G",
            source: "Example 5.2",
            text: "exists y. forall x. (!P(x) | S(y, x))",
            evaluable: true,
            allowed: false,
            wide_sense: true,
            domain_independent: true,
            note: "\"does some supplier supply all parts?\"",
        },
        PaperFormula {
            id: "ex5.2-F-open",
            source: "Example 5.2",
            text: "(P(x, y) | Q(y)) & !R(y)",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: false,
            note: "removing the outer quantifier breaks evaluability",
        },
        PaperFormula {
            id: "ex5.2-G-open",
            source: "Example 5.2",
            text: "forall x. (!P(x) | S(y, x))",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: false,
            note: "\"what suppliers supply all parts\" — unsafe if P empty",
        },
        PaperFormula {
            id: "sec53-default",
            source: "Sec. 5.3",
            text: "P(x) & (S(y, x) | (forall z. !S(z, x)) & y = 'none')",
            evaluable: true,
            allowed: true,
            wide_sense: true,
            domain_independent: true,
            note: "default-value query; 'none' enters via x = c",
        },
        PaperFormula {
            id: "ex6.2-F",
            source: "Example 6.2",
            text: "P(x) | (Q(x, y) & !R(y))",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: false,
            note: "con(y, F) holds; open x/y keep it unsafe at the top",
        },
        PaperFormula {
            id: "ex6.2-G",
            source: "Example 6.2",
            text: "(P(x) | Q(x, y)) & (P(x) | !R(y))",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: false,
            note: "pushing ors (E12) broke con(y, ·)",
        },
        PaperFormula {
            id: "ex6.3-F",
            source: "Example 6.3",
            text: "forall x. exists y. (R(y, z) & (Q(x) | !P(x)))",
            evaluable: true,
            allowed: false,
            wide_sense: true,
            domain_independent: true,
            note: "evaluable; E11 on the body destroys that",
        },
        PaperFormula {
            id: "ex6.3-G",
            source: "Example 6.3",
            text: "forall x. exists y. ((R(y, z) & Q(x)) | (R(y, z) & !P(x)))",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: true,
            note: "result of pushing ands: not evaluable, still definite",
        },
        PaperFormula {
            id: "ex9.1-a",
            source: "Examples 9.1/9.2",
            text: "P(x, y) & (Q(x) | R(y))",
            evaluable: true,
            allowed: true,
            wide_sense: true,
            domain_independent: true,
            note: "allowed but not RANF; translates to a union of joins",
        },
        PaperFormula {
            id: "ex9.1-b",
            source: "Example 9.1",
            text: "P(x, y) & !exists z. (Q(x, z) & !R(y, z))",
            evaluable: true,
            allowed: true,
            wide_sense: true,
            domain_independent: true,
            note: "allowed; needs generator insertion to reach RANF",
        },
        PaperFormula {
            id: "ex9.1-c",
            source: "Example 9.1",
            text: "P(x) & !exists y. (Q(y) & !exists z. R(x, y, z))",
            evaluable: true,
            allowed: true,
            wide_sense: true,
            domain_independent: true,
            note: "allowed; nested generator insertion",
        },
        PaperFormula {
            id: "ex9.2-row2",
            source: "Example 9.2",
            text: "P(x) & forall y. (!Q(y) | exists z. R(x, y, z))",
            evaluable: true,
            allowed: true,
            wide_sense: true,
            domain_independent: true,
            note: "division-style query; paper's second translation row",
        },
        PaperFormula {
            id: "ex9.2-row3",
            source: "Example 9.2",
            text: "P(x, y) & forall z. (!Q(x, z) | R(y, z))",
            evaluable: true,
            allowed: true,
            wide_sense: true,
            domain_independent: true,
            note: "paper's third translation row (diff with subset columns)",
        },
        PaperFormula {
            id: "fig2",
            source: "Fig. 2",
            text: "P(x) | Q(y) | R(x, y)",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: false,
            note: "geometric interpretation of con: points, lines, planes",
        },
        PaperFormula {
            id: "fig6",
            source: "Fig. 6 / Example A.1",
            text: "exists z. (P(x, z) & (x = y | Q(x, y, z)) & !(z = y | R(y, z)))",
            evaluable: false,
            allowed: false,
            wide_sense: true,
            domain_independent: true,
            note: "wide-sense evaluable via equality reduction",
        },
        PaperFormula {
            id: "sec10-closing",
            source: "Sec. 10.2 (after Thm. 10.5)",
            text: "forall y. ((P(x) & Q(y)) | (P(x) & !R(y)))",
            evaluable: false,
            allowed: false,
            wide_sense: false,
            domain_independent: true,
            note: "domain independent but not evaluable (repeated P)",
        },
    ]
}

/// Parse a corpus entry's formula.
pub fn formula_of(entry: &PaperFormula) -> Formula {
    rc_formula::parse(entry.text).expect("corpus formula parses")
}

/// Look up a corpus entry by id.
pub fn by_id(id: &str) -> Option<PaperFormula> {
    corpus().into_iter().find(|e| e.id == id)
}

/// A reproducible database over `f`'s inferred schema: six random rows
/// per predicate drawn from the values 1–4 plus `f`'s constants, or — for
/// seed 0 — every predicate declared and empty, so vacuous answers get
/// exercised too.
pub fn random_db(f: &Formula, seed: u64) -> Database {
    let schema = Schema::infer(f).expect("consistent arities");
    if seed == 0 {
        let mut db = Database::new();
        for (p, arity) in schema.predicates() {
            db.declare(p, arity);
        }
        return db;
    }
    let mut domain: Vec<Value> = (1..=4).map(Value::int).collect();
    for c in f.constants() {
        if !domain.contains(&c) {
            domain.push(c);
        }
    }
    Database::random(&schema, &domain, 6, &mut StdRng::seed_from_u64(seed))
}

/// The machine-readable JSON trace of corpus entry `id`: the traced
/// pipeline run over [`random_db`] as `{"corpus_id", "seed", "ok",
/// "trace"}` — the partial trace when the run fails. `None` when no entry
/// has that id.
pub fn trace_export(id: &str, seed: u64) -> Option<String> {
    let f = formula_of(&by_id(id)?);
    let db = random_db(&f, seed);
    let text = f.to_string();
    let trace = RefCell::default();
    let req = Request {
        trace: Some(&trace),
        ..Request::new(&text, CompileOptions::default())
    };
    let ok = serve(&req, &db, NoCache).is_ok();
    Some(format!(
        "{{\"corpus_id\": {id:?}, \"seed\": {seed}, \"ok\": {ok}, \"trace\": {}}}\n",
        trace.into_inner().to_json()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{is_allowed, is_evaluable};
    use crate::domind::{empirically_definite, DefiniteTest};
    use crate::eqreduce::is_wide_sense_evaluable;

    #[test]
    fn corpus_parses_and_ids_are_unique() {
        let c = corpus();
        assert!(c.len() >= 20);
        let mut ids: Vec<&str> = c.iter().map(|e| e.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), c.len());
        for e in &c {
            let _ = formula_of(e);
        }
    }

    #[test]
    fn evaluable_expectations_hold() {
        for e in corpus() {
            let f = formula_of(&e);
            assert_eq!(is_evaluable(&f), e.evaluable, "{}: {}", e.id, e.text);
        }
    }

    #[test]
    fn allowed_expectations_hold() {
        for e in corpus() {
            let f = formula_of(&e);
            assert_eq!(is_allowed(&f), e.allowed, "{}: {}", e.id, e.text);
        }
    }

    #[test]
    fn wide_sense_expectations_hold() {
        for e in corpus() {
            let f = formula_of(&e);
            assert_eq!(
                is_wide_sense_evaluable(&f),
                e.wide_sense,
                "{}: {}",
                e.id,
                e.text
            );
        }
    }

    #[test]
    fn domain_independence_expectations_hold_empirically() {
        for e in corpus() {
            let f = formula_of(&e);
            let verdict = empirically_definite(&f, &DefiniteTest::default());
            assert_eq!(
                verdict.is_definite(),
                e.domain_independent,
                "{}: {}",
                e.id,
                e.text
            );
        }
    }

    #[test]
    fn class_inclusions_on_corpus() {
        // allowed ⊆ evaluable ⊆ wide-sense ⊆ domain independent.
        for e in corpus() {
            assert!(!e.allowed || e.evaluable, "{}", e.id);
            assert!(!e.evaluable || e.wide_sense, "{}", e.id);
            assert!(!e.wide_sense || e.domain_independent, "{}", e.id);
        }
    }
}
