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

echo "==> example smoke tests"
cargo run -q --example quickstart > /dev/null
cargo run -q --example suppliers_parts > /dev/null

echo "==> trace overhead gate (tracing off must cost < 1% median, paired)"
TRACE_GATE=1 cargo run -q --release -p rc-bench --bin bench_eval

echo "==> cache gate (warm serves must hit; median repeated-query speedup >= 5x)"
CACHE_GATE=1 cargo run -q --release -p rc-bench --bin bench_eval

echo "==> partition gate (bit-identical results, fallback < 2%; 2x speedup at >= 8 cores)"
PAR_GATE=1 cargo run -q --release -p rc-bench --bin bench_eval

echo "==> optimizer gate (median multi_join speedup >= 2x; no family regresses > 5%)"
OPT_GATE=1 cargo run -q --release -p rc-bench --bin bench_eval

echo "==> IVM gate (every trickle re-serve refreshes; median speedup over full re-eval >= 10x)"
IVM_GATE=1 cargo run -q --release -p rc-bench --bin bench_eval

echo "==> any gate (every corpus formula — rejected included — serves via the safe pair, byte-identical to the oracle, flags surviving the wire)"
ANY_GATE=1 cargo run -q --release -p rc-bench --bin bench_eval

echo "==> egraph gate (corpus bit-identical across planner modes; saturated plans never priced above cost plans; median rewrite speedup >= 1.2x; no workload regresses >= 5%)"
EGRAPH_GATE=1 cargo run -q --release -p rc-bench --bin bench_eval

echo "==> rewrite catalog <-> registry drift check"
# Every rule registered in the e-graph must have a catalog section in
# docs/REWRITES.md, and every catalog section must name a registered
# rule. Both files change in the same commit or this gate fails.
registry_rules=$(sed -n 's/.*name: "\([a-z-]*\)".*/\1/p' crates/relalg/src/egraph.rs | sort -u)
catalog_rules=$(sed -n 's/^### `\([a-z-]*\)`$/\1/p' docs/REWRITES.md | sort -u)
if [ -z "$registry_rules" ]; then
  echo "error: no rules extracted from crates/relalg/src/egraph.rs (drift check pattern broke?)" >&2
  exit 1
fi
for r in $registry_rules; do
  if ! printf '%s\n' "$catalog_rules" | grep -qx "$r"; then
    echo "error: rule '$r' is registered in egraph.rs but has no '### \`$r\`' section in docs/REWRITES.md" >&2
    exit 1
  fi
done
for r in $catalog_rules; do
  if ! printf '%s\n' "$registry_rules" | grep -qx "$r"; then
    echo "error: docs/REWRITES.md documents rule '$r' but egraph.rs does not register it" >&2
    exit 1
  fi
done
echo "    $(printf '%s\n' "$registry_rules" | wc -l) rules in sync"

echo "==> serve gate (100 concurrent clients complete, zero errors, p99 bounded; 5x throughput at >= 8 cores)"
SERVE_GATE=1 cargo run -q --release -p rc-bench --bin bench_serve

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
