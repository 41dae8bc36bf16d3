#!/usr/bin/env bash
# Full local CI: everything a change must pass before it merges.
#
#   ./ci.sh            # run every gate
#   ./ci.sh --quick    # skip the release build (fast iteration)
#
# Gates:
#   1. release build of the whole workspace
#   2. the full test suite (debug: keeps debug_assert! hooks live)
#   3. the test suite again with csalt-sim's `audit` feature, which
#      checks the CSALT-A1xx conservation laws at every epoch boundary
#   4. csalt-sim still builds with the `telemetry` feature off
#   5. telemetry stream round-trip: an instrumented run's JSONL must
#      pass `csalt-report --telemetry --check` (no parse errors, no
#      stage-sum violations)
#   5b. trace export round-trip: a smoke run with --trace must emit
#      Chrome trace JSON that passes `csalt-report trace --check`
#      (balanced spans, monotonic per-track timestamps) with at least
#      one repartition instant
#   5c. bench trajectory diff: `csalt-report bench-diff` over
#      BENCH_history.jsonl, warn-only (regressions print, never fail)
#   6. sweep cache gate: a smoke figure suite runs cold into a fresh
#      cache, then warm from it — the warm pass must simulate nothing
#      and reproduce byte-identical results, and cross-figure duplicate
#      configs must be simulated exactly once
#   6d. checkpoint gate: a smoke suite whose configs share warmup
#      prefixes runs straight through (no checkpoints), then group by
#      group through `run_in` over a fresh checkpoint directory (leader
#      first, then its followers), then as one sweep batch — the
#      checkpointed runs must be byte-identical to the straight ones,
#      reject no image (zero fallbacks) and restore once per follower
#      config (every config after the first of its warmup-prefix
#      group), and the sweep must make one run per warmup group with
#      byte-identical results
#   6b. audit smoke: a multi-VM csalt-cd CLI run with the audit
#      feature live (conservation laws checked at every epoch
#      boundary), run twice — the two outputs must be byte-identical
#   6c. trace record smoke: `trace-record` writes a v2 trace twice —
#      the file must be one 32-byte header plus one 32-byte record per
#      access, and the two recordings byte-identical
#   7. telemetry overhead smoke: NullRecorder within the <2% budget
#      (skipped with --quick; needs a release build)
#   8. engine throughput smoke: steady-state accesses/sec per scheme must
#      stay within 20% of the floor recorded in BENCH_throughput.json
#      (skipped with --quick; needs a release build)
#   9. clippy with the workspace lint table, warnings denied
#  10. rustfmt check
#  11. the csalt-audit static sweep over every preset x scheme
#  12. csalt-audit srclint: the source-level determinism lints
#      (S-rules) over every crates/*/src file — no hash-order
#      iteration, no wall-clock reads, SAFETY'd unsafe, integer
#      counters; waivers must be reasoned

set -euo pipefail
cd "$(dirname "$0")"

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() { printf '\n== %s ==\n' "$*"; }

if [[ $quick -eq 0 ]]; then
    step "cargo build --workspace --release"
    cargo build --workspace --release
fi

step "cargo test --workspace"
cargo test --workspace -q

step "cargo test -p csalt-sim --features audit (conservation laws live)"
cargo test -p csalt-sim --features audit -q

step "cargo build -p csalt-sim --no-default-features (telemetry feature off)"
cargo build -q -p csalt-sim --no-default-features

step "telemetry stream round-trip (csalt-experiments run -> csalt-report --check)"
tmp_stream="$(mktemp -t csalt-telemetry-XXXXXX.jsonl)"
trap 'rm -f "$tmp_stream"' EXIT
cargo run -q -p csalt-sim --bin csalt-experiments -- \
    run gups csalt-cd --telemetry "$tmp_stream" --telemetry-sample 200 --accesses 8000 \
    --warmup 2000 --scale 0.05
cargo run -q -p csalt-sim --bin csalt-report -- --telemetry "$tmp_stream" --check > /dev/null

step "trace export round-trip (--trace -> csalt-report trace --check)"
tmp_trace="$(mktemp -t csalt-trace-XXXXXX.json)"
trap 'rm -f "$tmp_stream" "$tmp_trace"' EXIT
cargo run -q -p csalt-sim --bin csalt-experiments -- \
    run gups csalt-cd --trace "$tmp_trace" --telemetry-sample 200 --accesses 8000 \
    --warmup 2000 --scale 0.05
cargo run -q -p csalt-sim --bin csalt-report -- \
    trace "$tmp_trace" --check --expect-repartitions 1 > /dev/null

step "bench trajectory (csalt-report bench-diff, warn-only)"
cargo run -q -p csalt-sim --bin csalt-report -- bench-diff

step "sweep cache gate (warm re-run simulates nothing, results byte-identical)"
cargo run -q -p csalt-sim --bin csalt-experiments -- cache-gate

step "checkpoint gate (byte-identical, 0 fallbacks, every follower restores, one sweep run per warmup group)"
cargo run -q -p csalt-sim --bin csalt-experiments -- ckpt-gate

step "audit smoke (audit laws live, bit-deterministic)"
tmp_audit_a="$(mktemp -t csalt-audit-a-XXXXXX.txt)"
tmp_audit_b="$(mktemp -t csalt-audit-b-XXXXXX.txt)"
tmp_rec_a="$(mktemp -t csalt-rec-a-XXXXXX.trace)"
tmp_rec_b="$(mktemp -t csalt-rec-b-XXXXXX.trace)"
trap 'rm -f "$tmp_stream" "$tmp_trace" "$tmp_audit_a" "$tmp_audit_b" "$tmp_rec_a" "$tmp_rec_b"' EXIT
audit_smoke() {
    cargo run -q -p csalt-sim --features audit --bin csalt-experiments -- \
        run graph500_gups csalt-cd --accesses 12000 --warmup 4000 --scale 0.05
}
audit_smoke > "$tmp_audit_a"
audit_smoke > "$tmp_audit_b"
cmp "$tmp_audit_a" "$tmp_audit_b"

step "trace record smoke (v2 framing, deterministic bytes)"
for out in "$tmp_rec_a" "$tmp_rec_b"; do
    cargo run -q -p csalt-sim --bin csalt-experiments -- \
        trace-record gups "$out" --count 20000 --scale 0.05 --asid 3
done
test "$(wc -c < "$tmp_rec_a")" -eq $((32 + 20000 * 32))
cmp "$tmp_rec_a" "$tmp_rec_b"

if [[ $quick -eq 0 ]]; then
    step "telemetry overhead smoke (NullRecorder < 2%)"
    CSALT_SMOKE=1 cargo bench -q -p csalt-bench --bench telemetry_overhead

    step "throughput smoke (within 20% of BENCH_throughput.json floor)"
    CSALT_SMOKE=1 cargo bench -q -p csalt-bench --bench throughput
fi

step "cargo clippy --workspace --all-targets --all-features -- -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

step "cargo fmt --check"
cargo fmt --check

step "cargo run -p csalt-audit -- --all-presets"
cargo run -q -p csalt-audit -- --all-presets

step "cargo run -p csalt-audit -- srclint (source-level determinism lints)"
cargo run -q -p csalt-audit -- srclint

printf '\nci.sh: all gates passed\n'
