//! The "real life" QUEL disjunction anomaly from Sec. 2.
//!
//! A user asked for names matching R2 **or** R3; a commercial system built
//! the cross product R1 × R2 × R3 first, so an empty R3 silently nulled the
//! whole answer — and the vendor called that correct. This example
//! reproduces both behaviours side by side.
//!
//! ```sh
//! cargo run --example quel_anomaly
//! ```

use rc_safety::naive::{section2_formula, section2_naive};
use rcsafe::{serve, CompileOptions, Database, EvalCtx, NoCache, Request};

fn run_case(title: &str, db: &Database) {
    println!("== {title} ==");

    // QUEL semantics: σ_{n1=n2 ∨ n1=n3}(R1 × R2 × R3), project n1.
    let naive = section2_naive().translate_naive();
    let naive_ans = rc_relalg::eval(&naive, db, &mut EvalCtx::default()).expect("naive evaluates");
    println!("  QUEL-style product-first answer: {naive_ans}");

    // The calculus formula the user meant, correctly translated.
    let text = section2_formula().to_string();
    let ours = serve(&Request::new(&text, CompileOptions::default()), db, NoCache)
        .expect("formula compiles and evaluates");
    println!("  correct translation answer:      {}", ours.relation);
    println!("  algebra: {}", ours.compiled.expr);
    println!();
}

fn main() {
    let base = "R1('alice', 1)
                R1('bob', 2)
                R1('carol', 3)
                R2('alice', 10)
                R2('bob', 11)";

    // Case 1: R3 is empty — the anomaly.
    let mut db_empty_r3 = Database::from_facts(base).unwrap();
    db_empty_r3.declare("R3", 2);
    run_case("R3 empty (the user's surprise)", &db_empty_r3);

    // Case 2: R3 populated — both agree.
    let mut db_full = Database::from_facts(base).unwrap();
    db_full.load_facts("R3('carol', 20)").unwrap();
    run_case("R3 populated (both agree)", &db_full);

    println!(
        "The QUEL reading is only a correct translation for conjunctive \
         queries (Sec. 2); with disjunction, the from-list cross product \
         couples independent subqueries. The paper's pipeline translates \
         the disjunction as a union and never touches R3's cardinality."
    );
}
