//! Edge-case integration tests: the unglamorous corners that production
//! query front-ends actually hit.

mod common;

use rcsafe::safety::dom_baseline::{eval_brute_force, eval_dom};
use rcsafe::safety::pipeline::compile_with;
use rcsafe::{
    parse, serve, CompileOptions, Database, EvalCtx, NoCache, PipelineError, Relation, Request,
    Value, Var,
};

fn query(text: &str, db: &Database) -> Result<Relation, PipelineError> {
    let req = Request::new(text, CompileOptions::default());
    serve(&req, db, NoCache).map(|out| out.relation)
}

fn check_against_oracle(q: &str, db: &Database) {
    let f = parse(q).unwrap();
    let c = compile_with(&f, CompileOptions::default()).unwrap_or_else(|e| panic!("{q}: {e}"));
    let ours = c.run(db, &mut EvalCtx::default()).unwrap();
    let oracle = eval_brute_force(&f, db);
    assert_eq!(ours, oracle, "{q}");
}

#[test]
fn repeated_variables_in_atoms() {
    let db = Database::from_facts("P(1, 1)\nP(1, 2)\nP(3, 3)\nQ(1)\nQ(3)").unwrap();
    check_against_oracle("P(x, x)", &db);
    check_against_oracle("P(x, x) & Q(x)", &db);
    check_against_oracle("exists x. P(x, x)", &db);
    check_against_oracle("Q(x) & !P(x, x)", &db);
}

/// Equality reduction on repeated-variable atoms (`p(x, x) ∧ x = c`
/// shapes), checked differentially: the pipeline (equality reduction on by
/// default), the Dom-relation baseline, and brute-force active-domain
/// evaluation must all agree.
#[test]
fn repeated_variable_atoms_with_equalities() {
    let db = Database::from_facts("P(1, 1)\nP(1, 2)\nP(3, 3)\nQ(1)\nQ(3)").unwrap();
    for q in [
        "P(x, x) & x = 1",
        "exists x. (P(x, x) & x = 1)",
        "Q(y) & exists x. (P(x, x) & x = y)",
        "Q(x) & (P(x, x) | x = 1)",
        "Q(x) & !(P(x, x) & x = 1)",
        "P(x, y) & x = y",
        "exists x. (P(x, x) & (x = 1 | x = 3))",
    ] {
        let f = parse(q).unwrap();
        let c = compile_with(&f, CompileOptions::default()).unwrap_or_else(|e| panic!("{q}: {e}"));
        let ours = c.run(&db, &mut EvalCtx::default()).unwrap();
        assert_eq!(ours, eval_brute_force(&f, &db), "{q} vs brute force");
        assert_eq!(ours, eval_dom(&f, &db).unwrap(), "{q} vs Dom baseline");
    }
}

#[test]
fn constants_inside_atoms() {
    let db = Database::from_facts("P(1, 'a')\nP(2, 'b')\nP(1, 'b')").unwrap();
    check_against_oracle("P(1, y)", &db);
    check_against_oracle("P(x, 'b')", &db);
    check_against_oracle("P(1, 'a')", &db); // closed: boolean
    check_against_oracle("exists y. P(2, y)", &db);
    check_against_oracle("P(x, y) & !P(1, y)", &db);
}

#[test]
fn zero_ary_predicates() {
    let mut db = Database::from_facts("P(1)\nP(2)").unwrap();
    db.insert_relation("Flag", rcsafe::Relation::unit());
    db.declare("Off", 0);
    check_against_oracle("Flag & P(x)", &db);
    check_against_oracle("P(x) & !Off", &db);
    check_against_oracle("Flag", &db);
    check_against_oracle("!Off", &db);
    // Disjunction of nullary with guards.
    check_against_oracle("P(x) & (Flag | Off)", &db);
}

#[test]
fn empty_database_behaviour() {
    let mut db = Database::new();
    db.declare("P", 1);
    db.declare("Q", 2);
    let ans = query("P(x)", &db).unwrap();
    assert!(ans.is_empty());
    // ∀ over an empty generator is vacuously true.
    let all = query("!exists x. (P(x) & !exists y. Q(x, y))", &db).unwrap();
    assert_eq!(all.as_bool(), Some(true));
}

#[test]
fn deep_quantifier_alternation() {
    let db =
        Database::from_facts("E(1, 2)\nE(2, 3)\nE(3, 1)\nE(3, 4)\nE(4, 4)\nV(1)\nV(2)\nV(3)\nV(4)")
            .unwrap();
    // "Vertices x from which every out-neighbour has an out-edge back into
    // a neighbour of x": ∀y(E(x,y) → ∃z(E(y,z) ∧ E(x,z)))-ish shape with
    // three levels.
    check_against_oracle(
        "V(x) & forall y. (!E(x, y) | exists z. (E(y, z) & E(x, z)))",
        &db,
    );
    // Four levels.
    check_against_oracle(
        "V(x) & forall y. (!E(x, y) | exists z. (E(y, z) & forall w. (!E(z, w) | V(w))))",
        &db,
    );
}

#[test]
fn shadowing_input_is_rectified() {
    // The same bound name at two levels must be handled by rectification.
    let db = Database::from_facts("P(1)\nQ(1, 2)\nQ(2, 2)").unwrap();
    let f = parse("exists y. (P(y) & exists y. Q(y, y))").unwrap();
    let c = compile_with(&f, CompileOptions::default()).unwrap();
    let ans = c.run(&db, &mut EvalCtx::default()).unwrap();
    // ∃y P(y) is true; ∃y Q(y,y) is true (Q(2,2)).
    assert_eq!(ans.as_bool(), Some(true));
}

#[test]
fn same_variable_free_in_disjoint_branches() {
    let db = Database::from_facts("P(1)\nP(2)\nQ(2)\nQ(3)").unwrap();
    check_against_oracle("P(x) | Q(x)", &db);
    check_against_oracle("(P(x) | Q(x)) & !P(x)", &db);
}

#[test]
fn boolean_connective_stress() {
    let db = Database::from_facts("P(1)\nP(2)\nQ(2)\nR(2)\nR(3)").unwrap();
    // Multi-way unions and nested negations.
    check_against_oracle("(P(x) | Q(x) | R(x)) & !(P(x) & Q(x) & R(x))", &db);
    check_against_oracle("P(x) & !(Q(x) & !R(x)) | R(x) & !Q(x)", &db);
}

#[test]
fn implication_and_iff_sugar_compile() {
    let db = Database::from_facts("P(1)\nP(2)\nQ(2)").unwrap();
    // ∀x (P(x) → Q(x)) is false here (P(1) without Q(1)).
    let ans = query("!exists x. (P(x) & !Q(x))", &db).unwrap();
    assert_eq!(ans.as_bool(), Some(false));
    let via_arrow = query("forall x. (P(x) -> Q(x))", &db).unwrap();
    assert_eq!(via_arrow.as_bool(), Some(false));
    // An iff query over generated variables.
    check_against_oracle(
        "P(x) & (Q(x) <-> R(x))",
        &Database::from_facts("P(1)\nP(2)\nQ(2)\nR(2)\nR(1)").unwrap(),
    );
}

#[test]
fn constants_only_in_equality() {
    let db = Database::from_facts("P(1)\nP(2)").unwrap();
    // y enters the answer solely through y = c (Sec. 5.3's point).
    let ans = query("P(x) & y = 'tag'", &db).unwrap();
    assert_eq!(ans.len(), 2);
    assert!(ans.contains(&[Value::int(1), Value::str("tag")]));
    // Ground equality folds away.
    let t = query("P(x) & 1 = 1", &db).unwrap();
    assert_eq!(t.len(), 2);
    let f = query("P(x) & 1 = 2", &db).unwrap();
    assert!(f.is_empty());
}

#[test]
fn long_conjunction_chain() {
    let mut facts = String::new();
    for i in 0..20 {
        facts.push_str(&format!("E{i}({i}, {})\n", i + 1));
    }
    let db = Database::from_facts(&facts).unwrap();
    // A 20-way chain join: E0(x0, x1) ∧ E1(x1, x2) ∧ …
    let conj: Vec<String> = (0..20).map(|i| format!("E{i}(x{i}, x{})", i + 1)).collect();
    let q = conj.join(" & ");
    let f = parse(&q).unwrap();
    let c = compile_with(&f, CompileOptions::default()).unwrap();
    let ans = c.run(&db, &mut EvalCtx::default()).unwrap();
    assert_eq!(ans.len(), 1);
    assert_eq!(c.columns.len(), 21);
    assert_eq!(c.columns[0], Var::new("x0"));
}

#[test]
fn answers_with_mixed_value_types() {
    let db = Database::from_facts("M(1, 'one')\nM(2, 'two')").unwrap();
    check_against_oracle("M(x, y) & x != 1", &db);
    check_against_oracle("M(x, y) & y != 'one'", &db);
    // Int and string constants never collide.
    let ans = query("M(x, y) & !M(x, 'one')", &db).unwrap();
    assert_eq!(ans.len(), 1);
}
