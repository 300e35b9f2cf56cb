#!/usr/bin/env bash
# Smoke benchmarks and gates, one short run of each:
#   * figures --metrics — the MultiQueue's stickiness/buffering grid
#     (s ∈ {1, 8, 64} × m ∈ {1, 16}; s = m = 1 is `multiqueue`, every
#     other cell an `mq-sticky-s<s>-m<m>`) on the uniform workload;
#     writes BENCH_multiqueue.json, the structured per-cell export, at
#     the repository root;
#   * figures / quality --metrics — the insert-buffer frontier:
#     mq-sticky (the one queue with handle-local insert buffers) at
#     m ∈ {1, 4, 16, 64} beside the bare k-LSM, DLSM, SprayList,
#     flat-combining and locked queues; writes BENCH_flat_combining.json
#     (throughput + latency) and BENCH_flat_combining_rank.json (rank
#     error);
#   * checker_stress — one chaos cell plus the mutation tests;
#   * figures --metrics --trace — produces artifacts/metrics_smoke.json,
#     the same export for the k-LSM family and the skiplist, and
#     artifacts/trace_smoke.json, a
#     Chrome-trace-event flight-recorder export (one track per thread
#     with op spans and event instants, loadable in Perfetto); CI
#     uploads both as artifacts.
#
# Every --metrics or --trace run switches the queues' event counters
# on, so each export carries them; no special build is needed.
#
# Usage: scripts/bench_smoke.sh [THREADS] [DURATION_MS]
# THREADS defaults to the host's hardware thread count; more than that
# is time-slicing, not scaling, and every JSON export flags it
# ("oversubscribed" in the meta block).
set -euo pipefail
cd "$(dirname "$0")/.."
# Scratch outputs (smoke exports that are not recorded baselines) land
# under the gitignored artifacts/ directory.
mkdir -p artifacts

NPROC="$(nproc)"
THREADS="${1:-$NPROC}"
if (( THREADS > NPROC )); then
    echo "warning: THREADS=$THREADS exceeds nproc=$NPROC; results are oversubscribed (time-sliced), not scaling" >&2
fi
DURATION_MS="${2:-1000}"

echo "== MultiQueue stickiness/buffer grid =="
cargo run -p pq-bench --release --offline --bin figures -- \
    --experiment fig4a \
    --queues multiqueue,mq-sticky-s1-m16,mq-sticky-s8-m1,mq-sticky-s8-m16,mq-sticky-s64-m1,mq-sticky-s64-m16 \
    --threads "$THREADS" \
    --duration-ms "$DURATION_MS" \
    --metrics BENCH_multiqueue.json

echo "== insert-buffer frontier (throughput, latency, rank error) =="
# mq-sticky's buffer at m ∈ {1, 4, 16, 64} against the unbuffered
# queues (EXPERIMENTS.md "Insert buffering" says why no other queue
# buffers inserts), plus plain globallock and mound so the fc-vs-plain
# ratio reads off the same file (EXPERIMENTS.md "Flat combining and
# batch-size ablation"). perf_ledger gates mops.fc-mound /
# mops.globallock.
FRONTIER="mq-sticky-s8-m1,mq-sticky-s8-m4,mq-sticky-s8-m16,mq-sticky-s8-m64"
FRONTIER+=",klsm128,klsm4096,dlsm,spray,fc-globallock,fc-mound,globallock,mound"
cargo run -p pq-bench --release --offline --bin figures -- \
    --experiment fig4a \
    --queues "$FRONTIER" \
    --threads "$THREADS" \
    --prefill 50000 \
    --duration-ms "$DURATION_MS" \
    --metrics BENCH_flat_combining.json
cargo run -p pq-bench --release --offline --bin quality -- \
    --experiment fig4a \
    --queues "$FRONTIER" \
    --threads "$THREADS" \
    --prefill 50000 \
    --ops-per-thread 10000 \
    --metrics BENCH_flat_combining_rank.json

echo "== semantic checker smoke (one chaos cell + mutation tests) =="
# One strict and one relaxed queue through the recorded checker under
# seeded schedule perturbation, plus the three broken-wrapper mutation
# tests; fails on any violation, determinism mismatch, or a mutant the
# checker does not catch. Full matrix: cargo run ... --bin checker_stress.
cargo run -p pq-bench --release --offline --bin checker_stress -- \
    --threads "$THREADS" \
    --queue linden --queue multiqueue \
    --chaos-seed 7 \
    --mutation-test \
    --metrics BENCH_checker_smoke.json

echo "== metrics and flight-recorder export smoke =="
# Dropped-record counts are printed by the binary and embedded in the
# trace export, so ring truncation is never silent (EXPERIMENTS.md
# "Flight-recorder tracing").
cargo run -p pq-bench --release --offline --bin figures -- \
    --experiment fig4a \
    --queues multiqueue,mq-sticky,klsm256,linden,dlsm,klsm128,klsm4096 \
    --threads 2,"$THREADS" \
    --prefill 20000 \
    --duration-ms 250 \
    --reps 2 \
    --metrics artifacts/metrics_smoke.json \
    --trace artifacts/trace_smoke.json >/dev/null
