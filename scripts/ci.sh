#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 test suite.
#
#   scripts/ci.sh          # everything
#   scripts/ci.sh --quick  # skip the release build (lints + debug tests)
#
# The workspace must stay warning-free under clippy; the tier-1 suite is
# the root package's release build plus `cargo test` (the integration and
# property tests of the fuzzy-db facade), followed by the full workspace
# test run.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $quick -eq 0 ]]; then
  echo "==> cargo build --release (tier-1)"
  cargo build --release

  echo "==> benchmark compiles against the workspace (perfbench/ is read, not changed)"
  CARGO_TARGET_DIR=target/perfbench cargo build --release --offline --manifest-path perfbench/Cargo.toml
fi

echo "==> cargo test (tier-1: root package)"
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

if [[ $quick -eq 0 ]]; then
  echo "==> concurrent serving stress (release: races surface, timings real)"
  cargo test -q --release --test concurrent_serving
fi

echo "==> EXPLAIN golden suite (fails on drift; UPDATE_GOLDEN=1 regenerates)"
cargo test -q --test explain_golden

echo "==> static plan verifier suite (corpus + injected failures + goldens)"
cargo test -q --test verify_plans
cargo test -q --test verify_golden

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> unsafe hygiene (every crate must forbid unsafe_code)"
for f in src/lib.rs crates/*/src/lib.rs; do
  if ! grep -q '^#!\[forbid(unsafe_code)\]' "$f"; then
    echo "error: $f does not carry #![forbid(unsafe_code)]" >&2
    exit 1
  fi
done

echo "==> panic hygiene (no unwrap/expect in non-test core engine code)"
# Non-test = everything before the first #[cfg(test)] block of each file.
# Allowed: the documented invariant expects listed in the allowlist.
panics=$(for f in crates/core/src/*.rs crates/core/src/exec/*.rs; do
  awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"NR": "$0}' "$f"
done | grep -E '\.unwrap\(\)|\.expect\(' | grep -vFf scripts/unwrap_expect_allowlist.txt || true)
if [[ -n "$panics" ]]; then
  echo "error: unlisted unwrap()/expect() in non-test engine code — return an" >&2
  echo "EngineError or add the documented invariant to scripts/unwrap_expect_allowlist.txt:" >&2
  echo "$panics" >&2
  exit 1
fi

echo "==> value-keyed maps hash with ValueHashBuilder"
# Maps keyed by Value, Vec<Value> or &[Value] sit on the answer, aggregate
# and GROUP BY paths; std's SipHash default costs more than the work around
# it there. Non-test = everything before the first #[cfg(test)] block.
value_maps=$(find src crates/*/src -name '*.rs' | sort | while read -r f; do
  awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"NR": "$0}' "$f"
done | grep -E 'HashMap<\s*(&\s*)?(\[\s*(\w+::)*Value\s*\]|Vec<\s*(\w+::)*Value\s*>|(\w+::)*Value)\s*,' \
  | grep -v 'ValueHashBuilder' || true)
if [[ -n "$value_maps" ]]; then
  echo "error: HashMap keyed by values without fuzzy_core::hash::ValueHashBuilder:" >&2
  echo "$value_maps" >&2
  exit 1
fi

echo "==> operator declarations (the verifier checks the tree that runs)"
# Every exec/ operator module that opens a metered operator (begin_op, i.e.
# constructs an OpGuard) must also carry its physical-property declaration;
# mod.rs is the executor shell that *defines* begin_op.
undeclared=$(for f in crates/core/src/exec/*.rs; do
  [[ "$f" == */mod.rs ]] && continue
  if grep -q 'begin_op(' "$f" && ! grep -q 'declared_properties' "$f"; then
    echo "$f"
  fi
done)
if [[ -n "$undeclared" ]]; then
  echo "error: operator module(s) construct an OpGuard without a declared_properties impl:" >&2
  echo "$undeclared" >&2
  exit 1
fi

echo "==> no deprecated shims (delete superseded API instead of keeping it)"
if grep -rn '#\[deprecated' src crates/*/src; then
  echo "error: #[deprecated] item(s) above — migrate the callers and delete the shim" >&2
  exit 1
fi

echo "==> metrics/planner hygiene (no dead_code escapes)"
if grep -n '#\[allow(dead_code)\]' crates/core/src/metrics.rs crates/core/src/explain.rs \
    crates/core/src/verify.rs crates/core/src/plan.rs crates/core/src/optimizer.rs; then
  echo "error: engine code must not silence dead_code — wire the field up or remove it" >&2
  exit 1
fi

echo "==> serving surface (query entry points must be &self: sessions share them)"
# The concurrent serving layer (DESIGN.md §12) requires every query path on
# the facade to take &self; only the DDL/DML/config surface below may take
# &mut self. A new &mut self method on Database/Session/QueryBuilder/
# PreparedQuery must either join this allowlist (a mutation) or take &self.
allowed='^(define_term|create_table|insert|load|execute|catalog_mut|set_exec_config|set_threads|set_default_threshold)$'
mut_entry_points=$(awk '
  /pub fn [a-z_]+/ { name = $0; sub(/.*pub fn /, "", name); sub(/[^a-z_].*/, "", name); capture = 4 }
  capture > 0 { if (/&mut self/) print FILENAME ":" name; capture-- }
' src/lib.rs src/serving.rs | sort -u | awk -F: -v allowed="$allowed" '$2 !~ allowed { print }')
if [[ -n "$mut_entry_points" ]]; then
  echo "error: new &mut self entry point(s) on the serving facade — query paths" >&2
  echo "must take &self (sessions run them concurrently); if this is genuinely a" >&2
  echo "DDL/DML or config mutation, add it to the allowlist in scripts/ci.sh:" >&2
  echo "$mut_entry_points" >&2
  exit 1
fi

echo "CI gate passed."
