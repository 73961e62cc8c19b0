//! Experiment E-QUEL: the Sec. 2 disjunction anomaly, as a sweep.
//!
//! For increasing R1/R2 sizes and an R3 that is either empty or populated,
//! compare the QUEL cross-product translation with the paper's correct
//! translation: answers (do they agree?) and work done (tuples produced).
//!
//! ```sh
//! cargo run --release -p rc-bench --bin quel_table
//! ```

use rand::Rng;
use rc_bench::{rng, Table};
use rc_relalg::{eval, Database, EvalCtx};
use rc_safety::naive::{section2_formula, section2_naive};
use rc_safety::pipeline::{compile_with, CompileOptions};

fn make_db(n: usize, r3_rows: usize, seed: u64) -> Database {
    let mut db = Database::new();
    let mut r = rng(seed);
    for i in 0..n {
        db.insert_fact("R1", rc_relalg::tuple([format!("name{i}").as_str(), "x"]))
            .unwrap();
        if r.gen_bool(0.5) {
            db.insert_fact("R2", rc_relalg::tuple([format!("name{i}").as_str(), "y"]))
                .unwrap();
        }
    }
    db.declare("R2", 2);
    db.declare("R3", 2);
    for i in 0..r3_rows {
        db.insert_fact("R3", rc_relalg::tuple([format!("name{i}").as_str(), "z"]))
            .unwrap();
    }
    db
}

fn main() {
    println!("=== Sec. 2 'real life' example: QUEL product-first vs correct translation ===\n");
    let naive_expr = section2_naive().translate_naive();
    let correct = compile_with(&section2_formula(), CompileOptions::default()).unwrap();

    let mut t = Table::new(&[
        "|R1|",
        "|R3|",
        "QUEL answer",
        "correct answer",
        "agree",
        "QUEL tuples",
        "correct tuples",
    ]);
    for n in [10usize, 100, 300] {
        for r3 in [0usize, 5] {
            let db = make_db(n, r3, 7 + n as u64);
            let mut s1 = EvalCtx::default();
            let quel = eval(&naive_expr, &db, &mut s1).unwrap();
            let mut s2 = EvalCtx::default();
            let ours = correct
                .run(&db, &mut s2)
                .expect("correct translation evaluates");
            t.row(vec![
                n.to_string(),
                r3.to_string(),
                quel.len().to_string(),
                ours.len().to_string(),
                (quel == ours).to_string(),
                s1.stats.tuples_produced.to_string(),
                s2.stats.tuples_produced.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "With |R3| = 0, QUEL semantics return the empty answer regardless of R1 ⋈ R2\n\
         matches — the user's surprise. The correct translation is also cheaper: the\n\
         QUEL form materializes the three-way cross product."
    );
}
