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

echo "==> panic hygiene (no unwrap/expect in non-test engine, storage or facade code)"
# Allowed: the documented invariant expects listed in the allowlist. An
# allowlist entry that matches no scanned line is stale and fails the gate.
# Comment lines (doc examples) are not code and are skipped.
unwraps=$(non_test crates/core/src/*.rs crates/core/src/exec/*.rs crates/fuzzy-storage/src/*.rs \
  src/*.rs | grep -E '\.unwrap\(\)|\.expect\(' | grep -vE '^[^:]+:[0-9]+: *//' || true)
panics=$(grep -vFf scripts/unwrap_expect_allowlist.txt <<<"$unwraps" || true)
if [[ -n "$panics" ]]; then
  echo "error: unlisted unwrap()/expect() in non-test engine, storage or facade code — return" >&2
  echo "a typed error or add the documented invariant to scripts/unwrap_expect_allowlist.txt:" >&2
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

echo "==> one lowering (the executor and EXPLAIN use the verified tree, never re-lower)"
# A plan is lowered once, by `VerifiedPlan::new` in verify.rs. The executor
# drives that tree and every form of `EXPLAIN` renders it. Any other non-test
# call of `lower(` would build a tree the verifier never saw, or describe one
# that does not run.
relowered=$(non_test $(find crates/core/src -name '*.rs' | sort) src/*.rs \
  | grep -E '(^|[^_[:alnum:]])lower\(' \
  | grep -vE '^crates/core/src/verify\.rs:|^[^:]+:[0-9]+: *//|fn lower\(' || true)
if [[ -n "$relowered" ]]; then
  echo "error: plan lowered outside VerifiedPlan::new — use the VerifiedPlan instead:" >&2
  echo "$relowered" >&2
  exit 1
fi

echo "==> physical methods decided once (in lowering; the plan and EXPLAIN read the tree)"
# Lowering (exec/lower.rs) is the single source of physical decisions: it
# turns the strategy into each node's method, and everything else reads the
# lowered tree. A non-test `is_baseline(` call outside lower.rs, or a
# `crate::engine` import in plan.rs (the logical plan knows no strategy),
# would work a method out a second time.
second_guess=$({
  non_test $(find crates/core/src -name '*.rs' | sort) | grep -E '(^|[^_[:alnum:]])is_baseline\(' \
    | grep -vE '^crates/core/src/exec/lower\.rs:|^[^:]+:[0-9]+: *//|fn is_baseline\('
  non_test crates/core/src/plan.rs | grep -E 'crate::engine' | grep -vE '^[^:]+:[0-9]+: *//'
} || true)
if [[ -n "$second_guess" ]]; then
  echo "error: a physical method worked out outside exec/lower.rs — read the lowered" >&2
  echo "tree (Lowered::access, its Node::Sort and Node::Scan nodes) instead:" >&2
  echo "$second_guess" >&2
  exit 1
fi

echo "==> one ⪯ sort key (every engine sort compares the normalized prefix first)"
# The executor's ⪯ sorts key each value once with its normalized prefix and
# full OrderKey (`order_key` in exec/sort.rs) and sort through
# `fuzzy_storage::sort_keys`, which compares prefixes and calls
# `OrderKey::cmp_key` only on a tie. A `sort_by`/`sort_unstable_by` with
# `cmp_key` in its comparator (on its line or the next three) would be a
# second, unprefixed ⪯ sort path.
unprefixed=$(non_test $(find crates/core/src src -name '*.rs' | sort) | awk '
  /^[^:]+:[0-9]+: *\/\// { next }
  { file = $0; sub(/:.*/, "", file) }
  /sort(_unstable)?_by\(/ { at = NR; in_file = file }
  at && file == in_file && NR - at <= 3 && /cmp_key/ { print; at = 0 }
' || true)
if [[ -n "$unprefixed" ]]; then
  echo "error: ⪯ sort with cmp_key as its comparator — key with order_key and sort" >&2
  echo "through fuzzy_storage::sort_keys (prefix first) instead:" >&2
  echo "$unprefixed" >&2
  exit 1
fi

echo "==> one key path from the bytes (sort records are keyed without decoding a value)"
# `Tuple::order_key_at` in fuzzy-rel's tuple.rs builds a record's ⪯ key
# straight from its bytes, through the `OrderKey` constructors that
# `OrderKey::at` calls too. A non-test `decode_value_at(` (the decode-then-key
# path it replaced, now only the test oracle), or exec/sort.rs keying a record
# through `Tuple::decode(`, would be a second key path that builds a `Value`
# per record read.
decoded_keys=$({
  non_test $(find src crates/*/src crates/*/benches -name '*.rs' | sort) \
    | grep -E '(^|[^_[:alnum:]])decode_value_at\('
  non_test crates/core/src/exec/sort.rs | grep -E 'Tuple::decode\('
} | grep -vE '^[^:]+:[0-9]+: *//' || true)
if [[ -n "$decoded_keys" ]]; then
  echo "error: a sort record keyed by decoding a value — key it with" >&2
  echo "Tuple::order_key_at instead:" >&2
  echo "$decoded_keys" >&2
  exit 1
fi

echo "==> one parser (every statement form parses on one token cursor)"
# `Parser::new` in fuzzy-sql's parser.rs is the one place a statement is
# lexed: `parse` and `parse_statement` tokenize once, and every production
# (SELECT, EXPLAIN, DDL, DML) runs on that cursor. A second non-test
# `tokenize(` call, or statement.rs calling back into `parse` (re-parsing a
# slice or a synthesized SELECT), would be a second path through the grammar.
lexes=$(non_test $(find crates/fuzzy-sql/src -name '*.rs' | sort) \
  | grep -E '(^|[^_[:alnum:]])tokenize\(' \
  | grep -vE '^crates/fuzzy-sql/src/lexer\.rs:|^[^:]+:[0-9]+: *//' || true)
reparsed=$(non_test crates/fuzzy-sql/src/statement.rs | grep -E '(^|[^_.[:alnum:]])parse\(' \
  | grep -vE '^[^:]+:[0-9]+: *//' || true)
if [[ $(grep -c . <<<"$lexes") -ne 1 || "$lexes" != crates/fuzzy-sql/src/parser.rs:* \
    || -n "$reparsed" ]]; then
  echo "error: fuzzy-sql must tokenize once, in parser.rs's Parser::new, and statement.rs" >&2
  echo "must not call parse — add the production to parser::Parser instead:" >&2
  echo "${lexes}${reparsed:+$'\n'$reparsed}" >&2
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

echo "==> one declaration site (each lowered node declares itself, in exec/lower.rs)"
# `Node::declare` in exec/lower.rs derives every operator's required and
# delivered properties from the node and its input slots, and lowering builds
# the verifier's outline from it; a Node variant without a declaration does
# not compile, because that match is exhaustive. Any other non-test
# `PhysOp::declare(` would be a declaration written apart from its node.
declared=$(non_test $(find src crates/*/src -name '*.rs' | sort) | awk '
  /^[^:]+:[0-9]+: *\/\// { next }
  /PhysOp::declare\(/ {
    file = $0; sub(/:.*/, "", file)
    if (file != "crates/core/src/exec/lower.rs") print
  }
' || true)
if [[ -n "$declared" ]]; then
  echo "error: PhysOp::declare called outside exec/lower.rs — derive the declaration" >&2
  echo "in lower.rs's Node::declare instead:" >&2
  echo "$declared" >&2
  exit 1
fi

echo "==> one metering site (op::drive registers, times and charges every operator)"
# `op::drive` in exec/op.rs opens and closes each tree node's registry entry
# (`QueryMetrics::begin` / `finish`); operators only fill the counter set it
# hands them. The naive evaluator, which has no operator tree, is metered by
# engine.rs's `run_naive_metered`. Any other non-test call would charge an
# operator's work outside the driver, or twice.
metering=$(non_test $(find crates/core/src src -name '*.rs' | sort) | awk '
  /^[^:]+:[0-9]+: *\/\// { next }
  { file = $0; sub(/:.*/, "", file) }
  file != last_file { fn_name = ""; last_file = file }
  /(^|[^_[:alnum:]])fn [_[:alnum:]]+/ { fn_name = $0; sub(/.*fn /, "", fn_name); sub(/[^_[:alnum:]].*/, "", fn_name) }
  /\.begin\(|\.finish\([^)]|QueryMetrics::(begin|finish)/ {
    if (file == "crates/core/src/exec/op.rs") next
    if (file == "crates/core/src/engine.rs" && fn_name == "run_naive_metered") next
    print
  }
' || true)
if [[ -n "$metering" ]]; then
  echo "error: operator metered outside op::drive (and the naive path in engine.rs) —" >&2
  echo "fill the OperatorMetrics the driver hands the operator instead:" >&2
  echo "$metering" >&2
  exit 1
fi

echo "==> one I/O meter (statements and operators take page I/O from the thread tally)"
# `op::drive`, `Engine::measured` and `run_naive_metered` charge page I/O as
# deltas of `fuzzy_storage::thread_io()`, the calling thread's tally plus
# what its helper threads credited back, so a statement counts only its own
# transfers while other sessions share the disk. A non-test delta of the
# disk-wide counter (`disk.io()`, `.io().since(`) in the engine or the
# facade would count every session's transfers again.
disk_wide=$(non_test $(find crates/core/src src -name '*.rs' | sort) \
  | grep -E 'disk\.io\(\)|\.io\(\)\.since\(' | grep -vE '^[^:]+:[0-9]+: *//' || true)
if [[ -n "$disk_wide" ]]; then
  echo "error: page I/O metered with the disk-wide counter — take deltas of" >&2
  echo "fuzzy_storage::thread_io() instead:" >&2
  echo "$disk_wide" >&2
  exit 1
fi

echo "==> one aggregate accumulator (operators fold groups into exec/agg.rs's Accumulator)"
# The aggregate operator folds every group into an `Accumulator`: a running
# extreme for MIN/MAX under D(A(r)) = 1, and the set T(r) otherwise, whose
# `impl GroupSet` is the one operator-side caller of `apply_aggregate`. The
# naive evaluator (naive.rs), the oracle, builds T(r) and applies it itself.
# Any other non-test call would be a second path that builds T(r) per group.
aggregated=$(non_test $(find crates/core/src src -name '*.rs' | sort) | awk '
  /^[^:]+:[0-9]+: *\/\// { next }
  { file = $0; sub(/:.*/, "", file) }
  file != last_file { impl_name = ""; last_file = file }
  /^[^:]+:[0-9]+: impl/ { impl_name = $0; sub(/^[^:]+:[0-9]+: impl(<[^>]*>)? */, "", impl_name); sub(/[^_[:alnum:]].*/, "", impl_name) }
  /^[^:]+:[0-9]+: }/ { impl_name = "" }
  /(^|[^_[:alnum:]])apply_aggregate\(/ {
    if (file == "crates/core/src/naive.rs") next
    if (file == "crates/core/src/exec/agg.rs" && impl_name == "GroupSet") next
    print
  }
' || true)
if [[ -n "$aggregated" ]]; then
  echo "error: apply_aggregate called outside the naive evaluator and exec/agg.rs's" >&2
  echo "GroupSet — fold the group into an exec::agg::Accumulator instead:" >&2
  echo "$aggregated" >&2
  exit 1
fi

echo "==> one candidate loop per access mode (anti and aggregate are folds)"
# The anti and aggregate operators each state their per-pair step once, as an
# `OuterFold`, and `Executor::fold_outer` in exec/outer_fold.rs holds the one
# candidate loop of each access mode: the merge window, the scanned inner set
# and the block nested loop. A non-test `merge_window(`, `block_nested_loop(`
# or `.scan()` in exec/anti.rs or exec/agg.rs would be an operator
# enumerating its candidates itself.
looped=$(non_test crates/core/src/exec/anti.rs crates/core/src/exec/agg.rs \
  | grep -E '(^|[^_[:alnum:]])(merge_window|block_nested_loop)\(|\.scan\(\)' \
  | grep -vE '^[^:]+:[0-9]+: *//' || true)
if [[ -n "$looped" ]]; then
  echo "error: a candidate loop in the anti or aggregate operator — state the per-pair" >&2
  echo "step as an OuterFold and run it with Executor::fold_outer instead:" >&2
  echo "$looped" >&2
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
allowed='^(define_term|create_table|insert|load|execute|set_exec_config|set_threads|set_default_threshold)$'
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
