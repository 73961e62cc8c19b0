//! Quickstart: parse a query, watch every pipeline stage, evaluate it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rcsafe::safety::pipeline::compile_with;
use rcsafe::{classify, parse, serve, CompileOptions, Database, NoCache, Request};

fn main() {
    // A small graph database.
    let db = Database::from_facts(
        "Edge(1, 2)\nEdge(2, 3)\nEdge(3, 1)\nEdge(3, 4)\nMarked(2)\nMarked(4)",
    )
    .expect("facts load");

    // "Nodes with an edge to some marked node, that are not themselves
    // marked" — negation and quantification, the paper's bread and butter.
    let text = "exists y. (Edge(x, y) & Marked(y)) & !Marked(x)";
    let f = parse(text).expect("query parses");

    println!("query:          {f}");
    println!("safety class:   {}", classify(&f));

    // One call runs the whole pipeline: compile (every stage is kept on
    // the returned plan), then evaluate.
    let out = serve(&Request::new(text, CompileOptions::default()), &db, NoCache)
        .expect("query compiles and evaluates");
    let compiled = &out.compiled;
    println!("allowed form:   {}", compiled.allowed_form);
    println!("RANF form:      {}", compiled.ranf_form);
    println!("algebra:        {}", compiled.expr);

    let answer = &out.relation;
    println!(
        "answer ({}):     {}",
        compiled
            .columns
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        answer
    );

    // Unsafe queries are rejected with a reason — never silently
    // reinterpreted (compare Sec. 2's QUEL anomaly).
    match serve(
        &Request::new("!Marked(x)", CompileOptions::default()),
        &db,
        NoCache,
    ) {
        Err(e) => println!("\n¬Marked(x) rejected: {e}"),
        Ok(_) => unreachable!("¬Marked(x) must not compile"),
    }

    // Compilation options: keep the raw (unsimplified) expression.
    let raw = compile_with(
        &f,
        CompileOptions {
            optimize: false,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    println!("\nwithout simplification: {}", raw.expr);
}
