//! Example 9.2 regenerated: for each of the paper's three rows (and the
//! other Example 9.1 formulas), print the allowed formula, its RANF form
//! and the final relational algebra expression, then verify the answers
//! against the brute-force oracle.
//!
//! ```sh
//! cargo run --release -p rc-bench --bin translate_table
//! ```

use rc_formula::parse;
use rc_relalg::{Database, EvalCtx};
use rc_safety::dom_baseline::eval_brute_force;
use rc_safety::pipeline::{compile_with, CompileOptions};

fn main() {
    // Schema: P/1, Q/2, R/2, S/3 — the paper's shapes with arities
    // adjusted to one shared database.
    let rows = [
        ("Ex 9.2 row 1", "Q(x, y) & (P(x) | R(y, y))"),
        (
            "Ex 9.2 row 2",
            "P(x) & forall y. (!P(y) | exists z. S(x, y, z))",
        ),
        (
            "Ex 9.2 row 3",
            "Q(x, y) & forall z. (!R(x, z) | S(y, z, z))",
        ),
        ("Ex 9.1 b", "Q(x, y) & !exists z. (R(x, z) & !S(y, z, z))"),
        (
            "Ex 9.1 c",
            "P(x) & !exists y. (P(y) & !exists z. S(x, y, z))",
        ),
    ];

    let db = Database::from_facts(
        "P(1)\nP(2)\nP(3)\nQ(1, 2)\nQ(2, 2)\nQ(3, 1)\nR(1, 2)\nR(2, 2)\nR(2, 3)\n\
         S(1, 2, 2)\nS(2, 2, 1)\nS(2, 3, 3)\nS(3, 1, 1)",
    )
    .unwrap();

    println!("=== Example 9.2: formula → RANF → relational algebra ===\n");
    for (name, text) in rows {
        let f = parse(text).unwrap();
        let c = compile_with(&f, CompileOptions::default()).expect("paper formulas compile");
        println!("[{name}]");
        println!("  formula: {f}");
        println!("  RANF:    {}", c.ranf_form);
        println!("  algebra: {}", c.expr);
        let ours = c.run(&db, &mut EvalCtx::default()).unwrap();
        let oracle = eval_brute_force(&f, &db);
        assert_eq!(ours, oracle, "{name} answer mismatch");
        println!("  answer:  {ours}   (matches brute-force oracle)");
        println!();
    }
    println!("All translations verified against the oracle.");
}
