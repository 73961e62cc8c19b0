#![allow(dead_code)]
//! Shared helpers for the integration suites.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rcsafe::formula::vars::free_vars;
use rcsafe::safety::interp::FiniteInterp;
use rcsafe::{
    serve, CompileOptions, Database, Formula, NoCache, PipelineError, PipelineTrace, Request,
    Schema, Served, Value, Var,
};
use std::cell::RefCell;

/// Serve `text` uncached with tracing on: the outcome and its trace
/// (partial when the serve fails).
pub fn serve_traced(
    text: &str,
    db: &Database,
    opts: CompileOptions,
) -> (Result<Served, PipelineError>, PipelineTrace) {
    let trace = RefCell::default();
    let req = Request {
        trace: Some(&trace),
        ..Request::new(text, opts)
    };
    let out = serve(&req, db, NoCache);
    (out, trace.into_inner())
}

/// The union of the schemas of two formulas (they must agree on arities).
pub fn joint_schema(a: &Formula, b: &Formula) -> Schema {
    let mut schema = Schema::infer(a).expect("consistent schema");
    for (p, ar) in Schema::infer(b).expect("consistent schema").predicates() {
        schema.declare(p, ar);
    }
    schema
}

/// Columns covering the free variables of both formulas.
pub fn joint_columns(a: &Formula, b: &Formula) -> Vec<Var> {
    let mut cols = free_vars(a);
    for v in free_vars(b) {
        if !cols.contains(&v) {
            cols.push(v);
        }
    }
    cols
}

/// Are `a` and `b` logically equivalent? Checked by brute-force evaluation
/// over `trials` random databases (plus the empty database) with the given
/// domain size. Constants of both formulas are folded into the domain.
pub fn equivalent_on_random_dbs(
    a: &Formula,
    b: &Formula,
    trials: u64,
    domain_size: i64,
    seed: u64,
) -> bool {
    let schema = joint_schema(a, b);
    let cols = joint_columns(a, b);
    let mut domain: Vec<Value> = (1..=domain_size).map(Value::int).collect();
    for c in a.constants().into_iter().chain(b.constants()) {
        if !domain.contains(&c) {
            domain.push(c);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // The empty database first.
    let mut dbs: Vec<Database> = vec![{
        let mut d = Database::new();
        for (p, ar) in schema.predicates() {
            d.declare(p, ar);
        }
        d
    }];
    for _ in 0..trials {
        dbs.push(Database::random(&schema, &domain, 5, &mut rng));
    }
    for db in dbs {
        let interp = FiniteInterp::new(&db, domain.clone());
        if interp.answers(a, &cols) != interp.answers(b, &cols) {
            return false;
        }
    }
    true
}

/// Panic with context when `a` and `b` differ on some random database.
pub fn assert_equivalent(a: &Formula, b: &Formula, seed: u64) {
    assert!(
        equivalent_on_random_dbs(a, b, 8, 3, seed),
        "formulas differ:\n  {a}\n  {b}"
    );
}
