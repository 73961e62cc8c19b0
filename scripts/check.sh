#!/usr/bin/env bash
# The full local gate: formatting, lints, docs, the whole test suite, and
# the example smoke tests. CI runs exactly this script; keep the two in
# sync by construction.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test (workspace)"
# Includes the golden-trace snapshot suite (tests/golden_trace.rs); after
# an intentional plan/cardinality change, regenerate the snapshots with
#   BLESS=1 cargo test --test golden_trace
cargo test -q --workspace

echo "==> rcbench (its own package) builds and passes its tests against this tree"
# The determinism test pins protocol.response_bytes, so a codec or API
# change that breaks the benchmark fails here rather than in a bench run.
cargo test -q --release --offline --manifest-path rcbench/Cargo.toml

echo "==> example smoke tests"
for example in quickstart suppliers_parts geometry quel_anomaly; do
  cargo run -q --example "$example" > /dev/null
done

echo "==> repl smoke test (a query, explain, then a node-budget trip that names its stage)"
# An evaluable formula that is not allowed: genify must repair it, so a
# 5-node budget trips in the genify stage.
evaluable='exists x. ((Supplies(x, y) | Part(y)) & !Part(y))'
repl_out=$(printf '%s\n' 'exists y. Supplies(y, x)' "explain $evaluable" 'budget nodes 5' \
  "$evaluable" quit | cargo run -q --example repl)
if ! grep -q 'budget exceeded: genify stage exceeded the node budget' <<< "$repl_out"; then
  echo "error: the repl's budget-trip line does not name the genify stage:" >&2
  echo "$repl_out" >&2
  exit 1
fi

echo "==> bench_eval gates (trace, cache, partition, optimizer, IVM, any; all verdicts, then fail)"
cargo run -q --release -p rc-bench --bin bench_eval -- --gates

echo "==> partitioned golden trace carries per-partition span fields"
# The blessed snapshot must pin per-partition cardinalities; if the field
# vanished, the partitioned projection regressed — regenerate intentionally
# with: BLESS=1 cargo test --test golden_trace
if ! grep -q 'parts=\[' tests/snapshots/partitioned-join.trace.txt; then
  echo "error: tests/snapshots/partitioned-join.trace.txt lacks parts=[..] fields" >&2
  echo "       (after an intentional change: BLESS=1 cargo test --test golden_trace)" >&2
  exit 1
fi

echo "==> trace export smoke test (the JSON artifact CI uploads)"
cargo run -q --release -p rc-bench --bin trace_export > /dev/null

echo "All checks passed."
