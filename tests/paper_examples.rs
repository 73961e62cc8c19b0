//! End-to-end reproduction of the paper's worked examples, asserted as
//! integration tests across all three crates.

mod common;

use rcsafe::safety::corpus::{corpus, formula_of};
use rcsafe::safety::dom_baseline::eval_brute_force;
use rcsafe::safety::naive::{section2_formula, section2_naive};
use rcsafe::safety::pipeline::compile_with;
use rcsafe::{classify, parse, CompileOptions, Database, EvalCtx, SafetyClass, Value};

/// Section 2: the QUEL anomaly, full scenario.
#[test]
fn section_2_real_life_example() {
    let base = "R1('alice', 1)\nR1('bob', 2)\nR2('alice', 10)\nR2('bob', 11)";
    let mut db = Database::from_facts(base).unwrap();
    db.declare("R3", 2);

    // QUEL-style: null answer.
    let naive = rc_relalg::eval(
        &section2_naive().translate_naive(),
        &db,
        &mut EvalCtx::default(),
    )
    .unwrap();
    assert!(naive.is_empty());

    // Correct translation: the R1 ⋈ R2 matches.
    let f = section2_formula();
    let c = compile_with(&f, CompileOptions::default()).unwrap();
    let ours = c.run(&db, &mut EvalCtx::default()).unwrap();
    assert_eq!(ours.len(), 2);
    assert!(ours.contains(&[Value::str("alice")]));
    assert!(ours.contains(&[Value::str("bob")]));
    // …and it matches the brute-force semantics of the formula.
    assert_eq!(ours, eval_brute_force(&f, &db));
}

/// Example 9.2: the full three-row translation table — each formula is
/// allowed, reaches RANF, translates, and computes the right answers.
#[test]
fn example_92_translation_table() {
    let db = Database::from_facts(
        "P(1, 2)\nP(2, 3)\nP(4, 4)\nQ(1)\nQ(2)\nR(2, 1)\nR(3, 1)\nR(3, 2)\nS(1, 1, 1)\nS(2, 1, 1)\nS(2, 2, 1)",
    )
    .unwrap();

    // Row 1: P(x,y) ∧ (Q(x) ∨ R(y, x)) — adapted to binary R.
    let row1 = parse("P(x, y) & (Q(x) | R(y, x))").unwrap();
    let c1 = compile_with(&row1, CompileOptions::default()).unwrap();
    assert_eq!(c1.class, SafetyClass::Allowed);
    assert_eq!(
        c1.run(&db, &mut EvalCtx::default()).unwrap(),
        eval_brute_force(&row1, &db)
    );

    // Row 2: P(x) ∧ ∀y (¬Q(y) ∨ ∃z S(x,y,z)) — with unary P as Q here.
    let row2 = parse("Q(x) & forall y. (!Q(y) | exists z. S(x, y, z))").unwrap();
    let c2 = compile_with(&row2, CompileOptions::default()).unwrap();
    let shown = c2.expr.to_string();
    assert!(shown.contains("diff"), "row 2 must use diff: {shown}");
    assert_eq!(
        c2.run(&db, &mut EvalCtx::default()).unwrap(),
        eval_brute_force(&row2, &db)
    );
    // Semantics check by hand: x ∈ Q with S(x, y, ·) for every y ∈ Q.
    // Q = {1,2}; S(2,1,·) ✓ and S(2,2,·) ✓ so x=2 qualifies; S(1,1,·) ✓
    // but S(1,2,·) ✗.
    let ans = c2.run(&db, &mut EvalCtx::default()).unwrap();
    assert_eq!(ans.len(), 1);
    assert!(ans.contains(&[Value::int(2)]));

    // Row 3: P(x,y) ∧ ∀z (¬R(x,z) ∨ S(y,z,z)).
    let row3 = parse("P(x, y) & forall z. (!R(x, z) | S(y, z, z))").unwrap();
    let c3 = compile_with(&row3, CompileOptions::default()).unwrap();
    assert_eq!(
        c3.run(&db, &mut EvalCtx::default()).unwrap(),
        eval_brute_force(&row3, &db)
    );
}

/// The corpus classification table agrees with the paper (already unit
/// tested inside rc-safety; here we also check that every *safe* corpus
/// formula actually compiles and matches the oracle on a shared database).
#[test]
fn corpus_safe_formulas_compile_and_answer_correctly() {
    let db = Database::from_facts(
        "P(1)\nP(2)\nQ(2)\nQ(3)\nR(1, 2)\nR(2, 2)\nS(1, 2, 3)\nS(2, 2, 2)\nT(1)",
    )
    .unwrap();
    for e in corpus() {
        let f = formula_of(&e);
        let class = classify(&f);
        if class == SafetyClass::NotRecognized {
            assert!(
                compile_with(&f, CompileOptions::default()).is_err(),
                "{} should not compile",
                e.id
            );
            continue;
        }
        // Corpus predicates have varying arities across entries (P is
        // sometimes unary, sometimes binary); build a per-entry database
        // by reusing the shared one where arities fit and declaring the
        // rest empty.
        let mut per = Database::new();
        for (p, arity) in f.predicates() {
            match db.relation(p) {
                Some(rel) if rel.arity() == arity => {
                    per.insert_relation(p, rel.clone());
                }
                _ => {
                    per.declare(p, arity);
                }
            }
        }
        let c = compile_with(&f, CompileOptions::default())
            .unwrap_or_else(|err| panic!("{} failed: {err}", e.id));
        let ours = c.run(&per, &mut EvalCtx::default()).unwrap();
        let oracle = eval_brute_force(&f, &per);
        assert_eq!(ours, oracle, "{}: {}", e.id, e.text);
    }
}

/// Figure 2's decomposition, against the exact picture in the paper.
#[test]
fn figure_2_geometry() {
    use rcsafe::safety::geometry::decompose;
    let f = parse("P(x) | Q(y) | R(x, y)").unwrap();
    let db = Database::from_facts("P(1)\nQ(2)\nR(3, 3)").unwrap();
    let comps = decompose(&f, &db);
    let dims: Vec<usize> = comps.iter().map(|c| c.dimension()).collect();
    assert_eq!(dims.iter().filter(|&&d| d == 1).count(), 2); // two lines
    assert_eq!(dims.iter().filter(|&&d| d == 0).count(), 1); // one point
    assert_eq!(dims.iter().filter(|&&d| d == 2).count(), 0); // no plane
}

/// The paper's Sec. 3 headline: no `Dom` relation is ever constructed by
/// the pipeline — no scan of the reserved `Dom#` predicate appears in any
/// compiled expression, while the baseline is full of them.
#[test]
fn pipeline_is_dom_free() {
    use rcsafe::safety::dom_baseline::{dom_pred, translate_dom};
    use rcsafe::RaExpr;

    fn scans_dom(e: &RaExpr) -> bool {
        match e {
            RaExpr::Scan { pred, .. } => *pred == dom_pred(),
            _ => e.children().iter().any(|c| scans_dom(c)),
        }
    }

    for e in corpus() {
        let f = formula_of(&e);
        if let Ok(c) = compile_with(&f, CompileOptions::default()) {
            assert!(!scans_dom(&c.expr), "{}: {}", e.id, c.expr);
        }
        // The baseline uses Dom whenever negation/disjunction needs
        // padding.
        let _ = translate_dom(&f);
    }
    let negq = parse("P(x) & !Q(x, y)").unwrap();
    assert!(scans_dom(&translate_dom(&negq)));
}

/// Thm. 10.5 census at integration scale: slightly wider pools than the
/// unit test, still zero mismatches.
#[test]
fn thm_105_census_integration() {
    use rcsafe::formula::Symbol;
    use rcsafe::safety::norepeat::{census, CensusConfig};
    let cfg = CensusConfig {
        preds: vec![
            (Symbol::intern("P"), 1),
            (Symbol::intern("Q"), 1),
            (Symbol::intern("R"), 2),
        ],
        max_nodes: 4,
        ..CensusConfig::default()
    };
    let rows = census(&cfg);
    let total: usize = rows.iter().map(|r| r.total).sum();
    assert!(total > 200, "census too small: {total}");
    for row in rows {
        assert!(
            row.mismatches.is_empty(),
            "Thm 10.5 violated at size {}: {:?}",
            row.nodes,
            row.mismatches
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
        );
    }
}
