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

  echo "==> operator counter pins (release; fails on drift, UPDATE_GOLDEN=1 regenerates)"
  cargo test -q --release --test counter_pins
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

# Prints the non-test lines of the given files as `file:line: text`. Each
# `#[cfg(test)]` item is skipped: a one-line item (`mod x;`) alone, a block
# (`mod tests {`) through its closing `}` at column 0. Code after a test
# module is still scanned.
non_test() {
  awk '
    FNR == 1 { skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1; next }
    skip == 1 { skip = /[;}][[:space:]]*$/ ? 0 : 2; next }
    skip == 2 { if (/^}/) skip = 0; next }
    { print FILENAME ":" FNR ": " $0 }
  ' "$@"
}

echo "==> panic hygiene (no unwrap/expect in non-test core engine code)"
# Allowed: the documented invariant expects listed in the allowlist. An
# allowlist entry that matches no scanned line is stale and fails the gate.
unwraps=$(non_test crates/core/src/*.rs crates/core/src/exec/*.rs \
  | grep -E '\.unwrap\(\)|\.expect\(' || true)
panics=$(grep -vFf scripts/unwrap_expect_allowlist.txt <<<"$unwraps" || true)
if [[ -n "$panics" ]]; then
  echo "error: unlisted unwrap()/expect() in non-test engine code — return an" >&2
  echo "EngineError or add the documented invariant to scripts/unwrap_expect_allowlist.txt:" >&2
  echo "$panics" >&2
  exit 1
fi
stale=$(while IFS= read -r entry; do
  [[ -z "$entry" ]] || grep -qF -- "$entry" <<<"$unwraps" || echo "$entry"
done < scripts/unwrap_expect_allowlist.txt)
if [[ -n "$stale" ]]; then
  echo "error: scripts/unwrap_expect_allowlist.txt entries match no scanned line —" >&2
  echo "delete them:" >&2
  echo "$stale" >&2
  exit 1
fi

echo "==> value-keyed maps hash with ValueHashBuilder"
# Maps keyed by Value, Vec<Value> or &[Value] sit on the answer, aggregate
# and GROUP BY paths; std's SipHash default costs more than the work around
# it there.
value_maps=$(non_test $(find src crates/*/src -name '*.rs' | sort) | grep -E 'HashMap<\s*(&\s*)?(\[\s*(\w+::)*Value\s*\]|Vec<\s*(\w+::)*Value\s*>|(\w+::)*Value)\s*,' \
  | grep -v 'ValueHashBuilder' || true)
if [[ -n "$value_maps" ]]; then
  echo "error: HashMap keyed by values without fuzzy_core::hash::ValueHashBuilder:" >&2
  echo "$value_maps" >&2
  exit 1
fi

echo "==> the oracle stays literal (only the Strategy::Naive arm builds it)"
# `NaiveEvaluator::new` re-runs every nested block per outer tuple: it is the
# oracle the other strategies are checked against, and `Engine::run_query`'s
# `Strategy::Naive` arm is its only non-test caller. Every other naive
# evaluation (the Unnest fallback, DELETE/UPDATE matching) uses
# `NaiveEvaluator::serving`, which evaluates each closed block once.
literal=$(non_test $(find src crates/*/src -name '*.rs' | sort) | awk '
  /Strategy::[A-Za-z]+ =>/ { naive_arm = /Strategy::Naive =>/ ? NR : 0 }
  /NaiveEvaluator::new\(/ && !/^[^:]+:[0-9]+: *\/\// && !(naive_arm && NR - naive_arm <= 2) { print }
' || true)
if [[ -n "$literal" ]]; then
  echo "error: the literal naive evaluator is built outside the Strategy::Naive arm —" >&2
  echo "use NaiveEvaluator::serving (closed blocks evaluated once):" >&2
  echo "$literal" >&2
  exit 1
fi

echo "==> one lowering (the executor drives the verified tree, never re-lowers)"
# A plan is lowered once, by `VerifiedPlan::new` / `verify_plan` in verify.rs,
# and `EXPLAIN` renders a lowering in explain.rs. Any other non-test call of
# `lower(` would build a tree the verifier never saw.
relowered=$(non_test $(find crates/core/src -name '*.rs' | sort) src/*.rs \
  | grep -E '(^|[^_[:alnum:]])lower\(' \
  | grep -vE '^crates/core/src/(verify|explain)\.rs:|^[^:]+:[0-9]+: *//|fn lower\(' || true)
if [[ -n "$relowered" ]]; then
  echo "error: plan lowered outside verify.rs/explain.rs — run the VerifiedPlan instead:" >&2
  echo "$relowered" >&2
  exit 1
fi

echo "==> one engine context (no optional handles on Engine)"
# Every Engine runs in an EngineContext (statistics, plan cache, serving
# counters); the per-handle builders it replaced must not come back.
handles=$(grep -rnE 'fn (with_statistics|with_plan_cache|with_serving_counters)\b|\.(with_statistics|with_plan_cache|with_serving_counters)\(' \
  src crates/*/src crates/*/tests tests examples || true)
if [[ -n "$handles" ]]; then
  echo "error: optional engine handle builder(s) — use Engine::in_context:" >&2
  echo "$handles" >&2
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
