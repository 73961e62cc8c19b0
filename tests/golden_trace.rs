//! Golden-trace snapshots: the deterministic projection of the pipeline
//! trace (stage node counts, span tree shape, per-operator in/out/raw
//! cardinalities — no times, no parallel flag) is pinned for a dozen
//! corpus formulas against committed snapshots in `tests/snapshots/`.
//!
//! A change to any transformation stage or evaluation kernel that alters
//! plan shape or cardinalities shows up here as a readable diff.
//! Regenerate intentionally with:
//!
//! ```sh
//! BLESS=1 cargo test --test golden_trace
//! ```

mod common;

use common::serve_traced;
use rcsafe::formula::Value;
use rcsafe::relalg::RelationBuilder;
use rcsafe::safety::corpus::{by_id, formula_of, random_db};
use rcsafe::safety::pipeline::CompileOptions;
use rcsafe::{Budget, Database};
use std::path::PathBuf;

/// The pinned corpus entries: every safety class the pipeline accepts,
/// both boolean and open formulas, including ones where simplification
/// collapses the plan.
const PINNED: &[&str] = &[
    "sec21-curable",
    "sec21-cured",
    "ex5.2-F",
    "ex5.2-G",
    "sec53-default",
    "ex6.1-before",
    "ex6.1-after",
    "ex6.3-F",
    "ex9.1-a",
    "ex9.1-b",
    "ex9.2-row2",
    "fig6",
];

/// The deterministic database every snapshot runs against: seeded from the
/// formula's schema with the same recipe the end-to-end corpus tests use.
const DB_SEED: u64 = 7;

fn snapshot_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{id}.trace.txt"))
}

fn projection_of(id: &str) -> String {
    let f = formula_of(&by_id(id).unwrap_or_else(|| panic!("no corpus entry {id:?}")));
    let text = f.to_string();
    let db = random_db(&f, DB_SEED);
    let (result, trace) = serve_traced(&text, &db, CompileOptions::default());
    result.unwrap_or_else(|e| panic!("{id} failed to compile+eval: {e}"));
    trace.deterministic()
}

#[test]
fn golden_traces_match_snapshots() {
    let bless = std::env::var("BLESS").as_deref() == Ok("1");
    let mut failures = Vec::new();
    for id in PINNED {
        let got = projection_of(id);
        let path = snapshot_path(id);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(want) if want == got => {}
            Ok(want) => failures.push(format!(
                "{id}: trace projection drifted\n--- snapshot\n{want}--- got\n{got}"
            )),
            Err(_) => failures.push(format!(
                "{id}: missing snapshot {} (run BLESS=1 cargo test --test golden_trace)",
                path.display()
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden trace(s) drifted:\n\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}

/// The partitioned projection of a big join forced to exactly 4-way
/// partitioned kernels. Machine-independent because the count is pinned:
/// partition membership is decided by `FxHasher` (no random seed) and
/// chunk boundaries by integer arithmetic — only wall times and loop
/// counts vary, and the projection excludes both.
fn partitioned_projection_of_big_join() -> String {
    let mut db = Database::new();
    let mut a = RelationBuilder::new(2);
    let mut b = RelationBuilder::new(2);
    for i in 0..9_000i64 {
        a.push_row(&[Value::int(i), Value::int(i % 97)]);
        b.push_row(&[Value::int(i % 97), Value::int(i % 13)]);
    }
    db.insert_relation("A", a.finish());
    db.insert_relation("B", b.finish());
    let opts = CompileOptions {
        budget: Budget::new().with_partitions(4),
        ..CompileOptions::default()
    };
    let (result, trace) = serve_traced("A(x, y) & B(y, z)", &db, opts);
    result.unwrap_or_else(|e| panic!("partitioned big join failed: {e}"));
    trace
        .root
        .as_ref()
        .expect("traced run leaves an operator tree")
        .partitioned_projection()
}

/// Golden snapshot of the *partitioned* projection: per-partition output
/// cardinalities (`parts=[..]`) under a forced 4-way split are pinned in
/// `tests/snapshots/partitioned-join.trace.txt`.
#[test]
fn partitioned_golden_trace_matches_snapshot() {
    let bless = std::env::var("BLESS").as_deref() == Ok("1");
    let got = partitioned_projection_of_big_join();
    assert!(
        got.contains("parts=["),
        "forced partition count must leave per-partition span fields:\n{got}"
    );
    let path = snapshot_path("partitioned-join");
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    match std::fs::read_to_string(&path) {
        Ok(want) if want == got => {}
        Ok(want) => panic!(
            "partitioned trace projection drifted\n--- snapshot\n{want}--- got\n{got}\n\
             (intentional? BLESS=1 cargo test --test golden_trace)"
        ),
        Err(_) => panic!(
            "missing snapshot {} (run BLESS=1 cargo test --test golden_trace)",
            path.display()
        ),
    }
}

/// The projection itself is stable: two fresh runs of the same query over
/// the same database produce byte-identical deterministic projections.
#[test]
fn projection_is_reproducible_within_a_run() {
    for id in ["ex5.2-G", "ex9.2-row2"] {
        assert_eq!(projection_of(id), projection_of(id), "{id}");
    }
}

/// Every pinned snapshot carries the full stage ladder and a span tree:
/// structural sanity independent of the committed bytes.
#[test]
fn projections_have_stages_and_operators() {
    for id in PINNED {
        let p = projection_of(id);
        for stage in [
            "parse",
            "classify",
            "genify",
            "ranf",
            "translate",
            "optimize",
            "eval",
        ] {
            assert!(
                p.contains(&format!("stage {stage}:")),
                "{id}: projection lacks stage {stage}:\n{p}"
            );
        }
        assert!(
            p.contains("op "),
            "{id}: projection lacks operator spans:\n{p}"
        );
    }
}
