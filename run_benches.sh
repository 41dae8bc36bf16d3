#!/bin/bash
# Regenerates every table and figure. Output accumulates in bench_output.txt.
# Exits nonzero if any bench fails; stderr is captured, not discarded.
set -u
cd /root/repo
: > bench_output.txt
status=0
# One shared result cache for the whole bench session: configurations
# that recur across figures (the fig07 grid in fig08/10/11/13, the
# pom-tlb baselines everywhere) are simulated once and reused, and a
# re-run after an interrupted session resumes where it stopped. The
# cache is content-addressed and scoped to the engine fingerprint, so
# it never serves stale results (see EXPERIMENTS.md "The result cache").
export CSALT_CACHE_DIR="${CSALT_CACHE_DIR:-/root/repo/target/csalt-cache}"
# BENCH_*.json records stamp the git revision plus a dirty flag, and the
# recorders refuse to overwrite a clean-tree record for the same
# revision with dirty numbers (CSALT_BENCH_FORCE=1 overrides). Surface
# the tree state up front so a refusal later in the session is no
# surprise.
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    echo "git tree: DIRTY at $(git rev-parse --short HEAD 2>/dev/null || echo unknown) — BENCH records will be flagged dirty" | tee -a bench_output.txt
    DIRTY=true
else
    echo "git tree: clean at $(git rev-parse --short HEAD 2>/dev/null || echo unknown)" | tee -a bench_output.txt
    DIRTY=false
fi
# Session marker in the bench trajectory: one line per bench session,
# so `csalt-report bench-diff` can attribute metric lines to sessions.
printf '{"bench":"session","metric":"start","value":0,"better":"higher","git_rev":"%s","dirty":%s,"host_threads":%s,"timestamp":%s}\n' \
    "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    "$DIRTY" \
    "$(nproc 2>/dev/null || echo 1)" \
    "$(date +%s)" >> BENCH_history.jsonl
BENCHES="tab02_config fig01_tlb_mpki_ratio tab01_walk_cycles fig03_cache_occupancy \
fig07_performance fig08_walks_eliminated fig09_partition_trace fig10_l2_mpki \
fig11_l3_mpki fig12_native fig13_prior_work fig14_contexts fig15_epoch \
fig16_cs_interval ext_5level ext_tsb_csalt ext_huge_pages ext_drrip ablation_replacement \
ablation_static"
for b in $BENCHES; do
    echo "=== bench: $b ($(date +%H:%M:%S)) ===" | tee -a bench_output.txt
    cargo bench -p csalt-bench --bench "$b" 2>&1 | tee -a bench_output.txt
    rc=${PIPESTATUS[0]}
    if [ "$rc" -ne 0 ]; then
        echo "FAILED: $b (exit $rc)" | tee -a bench_output.txt
        status=1
    fi
done
echo "=== micro_components (criterion) ===" | tee -a bench_output.txt
cargo bench -p csalt-bench --bench micro_components 2>&1 | tee -a bench_output.txt
rc=${PIPESTATUS[0]}
if [ "$rc" -ne 0 ]; then
    echo "FAILED: micro_components (exit $rc)" | tee -a bench_output.txt
    status=1
fi
echo "=== sweep (cold/warm timing -> BENCH_sweep.json) ===" | tee -a bench_output.txt
cargo bench -p csalt-bench --bench sweep 2>&1 | tee -a bench_output.txt
rc=${PIPESTATUS[0]}
if [ "$rc" -ne 0 ]; then
    echo "FAILED: sweep (exit $rc)" | tee -a bench_output.txt
    status=1
fi
echo "=== throughput (-> BENCH_throughput.json) ===" | tee -a bench_output.txt
cargo bench -p csalt-bench --bench throughput 2>&1 | tee -a bench_output.txt
rc=${PIPESTATUS[0]}
if [ "$rc" -ne 0 ]; then
    echo "FAILED: throughput (exit $rc)" | tee -a bench_output.txt
    status=1
fi
if [ "$status" -ne 0 ]; then
    echo "SOME BENCHES FAILED $(date +%H:%M:%S)" | tee -a bench_output.txt
else
    echo "ALL BENCHES DONE $(date +%H:%M:%S)" | tee -a bench_output.txt
fi
exit "$status"
