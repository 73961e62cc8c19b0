//! Plan identity under the cost planner: the plans `compile_for` chooses
//! for a fixed list of generated allowed formulas against one fixed
//! database are pinned, one digest line per formula, in
//! `tests/snapshots/plan-digest.txt`.
//!
//! The formulas are the first [`FORMULAS`] that
//! `rc_bench::allowed_formula_sized` yields under the sized-corpus rule of
//! the `cold_compile` benchmark workload (40–150 formula nodes, compiled
//! plan of at most [`MAX_NODES`] nodes); the database holds that
//! workload's `P`/`Q`/`R`/`S` tables. Each line is the formula's seed, the
//! plan's node count and an FxHash of the plan's `Display` text, so any
//! change to what the planner chooses — not only to its cost — shows up
//! as a drifted line. Regenerate intentionally with:
//!
//! ```sh
//! BLESS=1 cargo test --test plan_digest
//! ```

use rcsafe::formula::fxhash::FxHasher;
use rcsafe::safety::pipeline::{compile_for, compile_with, CompileOptions};
use rcsafe::Budget;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::PathBuf;

/// Formulas pinned.
const FORMULAS: usize = 200;
/// Largest compiled plan (nodes) admitted, as in the benchmark corpus.
const MAX_NODES: usize = 600;

fn digests() -> String {
    let db = rc_bench::bench_db(24, 60, 7);
    let mut out = String::new();
    let mut pinned = 0;
    let mut fseed = 0u64;
    while pinned < FORMULAS {
        let nodes = 40 + (fseed * 37 % 111) as usize;
        let f = rc_bench::allowed_formula_sized(nodes, fseed);
        let opts = || CompileOptions {
            budget: Budget::new().with_max_nodes(MAX_NODES as u64),
            ..CompileOptions::default()
        };
        if compile_with(&f, opts()).is_ok_and(|c| c.expr.node_count() <= MAX_NODES) {
            let plan = compile_for(&f, opts(), &db)
                .expect("admitted formula compiles")
                .expr;
            let mut h = FxHasher::default();
            h.write(plan.to_string().as_bytes());
            let _ = writeln!(out, "{fseed} {} {:016x}", plan.node_count(), h.finish());
            pinned += 1;
        }
        fseed += 1;
    }
    out
}

#[test]
fn cost_planner_plans_match_snapshot() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/plan-digest.txt");
    let got = digests();
    if std::env::var("BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {} (run BLESS=1 cargo test --test plan_digest)",
            path.display()
        )
    });
    let drifted: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        drifted.is_empty() && want.lines().count() == got.lines().count(),
        "{} plan digest line(s) drifted:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
