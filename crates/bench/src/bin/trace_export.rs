//! Export the machine-readable JSON trace of one corpus query.
//!
//! Writes [`rc_safety::corpus::trace_export`] — the traced pipeline run on
//! a paper formula over a deterministic random database — to
//! `TRACE_corpus.json` at the repository root, the artifact CI uploads so
//! a pipeline run's span tree can be inspected without rerunning anything:
//!
//! ```sh
//! cargo run --release -p rc-bench --bin trace_export [corpus-id] [seed]
//! ```
//!
//! Defaults to `ex9.2-row2` (a wide-sense evaluable formula exercising
//! classify → genify → ranf → translate → optimize → eval) with seed 7.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let id = args.get(1).map(String::as_str).unwrap_or("ex9.2-row2");
    let seed: u64 = args
        .get(2)
        .map(|s| s.parse().expect("seed must be a number"))
        .unwrap_or(7);
    let json = rc_safety::corpus::trace_export(id, seed)
        .unwrap_or_else(|| panic!("no corpus entry with id {id:?}"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRACE_corpus.json");
    std::fs::write(path, &json).expect("write TRACE_corpus.json");
    println!("wrote {path}");
}
