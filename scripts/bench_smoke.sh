#!/usr/bin/env bash
# Smoke benchmarks and gates, one short run of each:
#   * figures --metrics — plain multiqueue vs. the mq-sticky
#     stickiness/buffering grid (s ∈ {1, 8, 64} × m ∈ {1, 16}) on the
#     uniform workload; writes BENCH_multiqueue.json, the structured
#     per-cell export, at the repository root;
#   * figures / quality --metrics — the insert-buffer size frontier,
#     m ∈ {1, 4, 16, 64} across the seven buffering families plus the
#     plain locked queues the fc wrapper delegates for; writes
#     BENCH_flat_combining.json (throughput + latency) and
#     BENCH_flat_combining_rank.json (rank error);
#   * instr_overhead — built with --features trace, gates an actively
#     recording flight recorder at TRACE_MAX_OVERHEAD_PCT (default 5)
#     percent of plain throughput;
#   * checker_stress — one chaos cell plus the mutation tests;
#   * figures --metrics with telemetry on — produces
#     artifacts/metrics_smoke.json, the same export with the queues'
#     event counters, that CI uploads as an artifact;
#   * figures --trace — produces artifacts/trace_smoke.json, a
#     Chrome-trace-event flight-recorder export (one track per thread,
#     loadable in Perfetto) that CI also uploads as an artifact.
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
TRACE_MAX_OVERHEAD_PCT="${TRACE_MAX_OVERHEAD_PCT:-5}"

echo "== multiqueue vs. mq-sticky stickiness/buffer grid =="
cargo run -p pq-bench --release --offline --bin figures -- \
    --experiment fig4a \
    --queues multiqueue,mq-sticky-s1-m1,mq-sticky-s1-m16,mq-sticky-s8-m1,mq-sticky-s8-m16,mq-sticky-s64-m1,mq-sticky-s64-m16 \
    --threads "$THREADS" \
    --duration-ms "$DURATION_MS" \
    --metrics BENCH_multiqueue.json

echo "== insert-buffer size frontier (throughput, latency, rank error) =="
# Every buffering family at m ∈ {1, 4, 16, 64} (m = 1 is the bare
# queue), plus plain globallock and mound so the fc-vs-plain ratio reads
# off the same file (EXPERIMENTS.md "Flat combining and batch-size
# ablation"). perf_ledger gates mops.fc-mound / mops.globallock.
FRONTIER=""
for family in mq-sticky-s8-m klsm128-b klsm4096-b dlsm-b spray-b fc-globallock-b fc-mound-b; do
    for m in 1 4 16 64; do
        FRONTIER+="$family$m,"
    done
done
FRONTIER+="globallock,mound"
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

echo "== flight-recorder overhead (trace feature, limit ${TRACE_MAX_OVERHEAD_PCT}%) =="
# A/B of plain throughput against a run with the flight recorder
# actively capturing batch spans, so the batch-granularity span design
# (no extra clock reads in the hot loop) cannot silently regress.
cargo run -p pq-bench --release --offline --features trace --bin instr_overhead -- \
    --threads "$THREADS" \
    --duration-ms "$DURATION_MS" \
    --max-trace-overhead-pct "$TRACE_MAX_OVERHEAD_PCT"

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

echo "== metrics export smoke (telemetry on) =="
cargo run -p pq-bench --release --offline --features telemetry --bin figures -- \
    --experiment fig4a \
    --queues multiqueue,mq-sticky,klsm256,linden,dlsm,klsm128,klsm4096 \
    --threads 2,"$THREADS" \
    --prefill 20000 \
    --duration-ms 250 \
    --reps 2 \
    --metrics artifacts/metrics_smoke.json >/dev/null

echo "== flight-recorder export smoke (trace on) =="
# One short traced cell per queue at THREADS threads; writes
# artifacts/trace_smoke.json, a Chrome-trace-event file loadable in
# Perfetto with one track per worker thread (EXPERIMENTS.md
# "Flight-recorder tracing"). Dropped-record counts are printed by the
# binary and embedded in the export, so truncation is never silent.
cargo run -p pq-bench --release --offline --features trace --bin figures -- \
    --experiment fig4a \
    --queues multiqueue,klsm256 \
    --threads "$THREADS" \
    --prefill 20000 \
    --duration-ms 250 \
    --reps 1 \
    --trace artifacts/trace_smoke.json >/dev/null
