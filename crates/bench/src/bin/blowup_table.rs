//! Experiment E-PERF3: size growth through the transformation chain.
//!
//! For allowed formulas of increasing size, report the node counts of the
//! genify output, the RANF form (distribution can be exponential —
//! Sec. 9.2 acknowledges `ranf` "is not the last word" on output size) and
//! the final algebra expression, plus transformation times.
//!
//! ```sh
//! cargo run --release -p rc-bench --bin blowup_table
//! ```

use rc_bench::{allowed_formula_sized, Table};
use rc_safety::pipeline::{compile_with, CompileOptions};
use std::time::Instant;

fn main() {
    println!("=== E-PERF3: transformation size growth (allowed → RANF → algebra) ===\n");
    let mut t = Table::new(&[
        "input nodes",
        "genify nodes",
        "ranf nodes",
        "algebra ops",
        "compile µs",
    ]);
    for target in [10usize, 20, 40, 80, 160, 320] {
        let f = allowed_formula_sized(target, 4242 + target as u64);
        let t0 = Instant::now();
        match compile_with(&f, CompileOptions::default()) {
            Ok(c) => {
                let us = t0.elapsed().as_micros();
                t.row(vec![
                    f.node_count().to_string(),
                    c.allowed_form.node_count().to_string(),
                    c.ranf_form.node_count().to_string(),
                    c.expr.node_count().to_string(),
                    us.to_string(),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    f.node_count().to_string(),
                    "—".into(),
                    format!("{e}"),
                    "—".into(),
                    "—".into(),
                ]);
            }
        }
    }
    println!("{}", t.render());
    println!(
        "RANF growth is driven by T11 distribution (disjunctions multiply out);\n\
         the node budget (Budget::with_max_nodes, or ranf's DEFAULT_NODE_CAP\n\
         when unset) rejects pathological inputs instead of exhausting memory."
    );
}
