#!/usr/bin/env bash
# Smoke benchmarks and gates, one short run of each:
#   * figures --metrics — plain multiqueue vs. the mq-sticky
#     stickiness/buffering grid (s ∈ {1, 8, 64} × m ∈ {1, 16}) on the
#     uniform workload; writes BENCH_multiqueue.json, the structured
#     per-cell export, at the repository root;
#   * batch_ablation — flat-combining A/B gate (FC_MIN_SPEEDUP) plus the
#     insert-buffer size frontier; writes BENCH_flat_combining.json;
#   * checker_stress — one chaos cell plus the mutation tests;
#   * instr_overhead — asserts the Instrumented wrapper costs less than
#     INSTR_MAX_OVERHEAD_PCT (default 5) percent of plain throughput,
#     guarding the per-handle sharded-counter design against regressions
#     that reintroduce false sharing; a second invocation built with
#     --features trace additionally gates an actively-recording flight
#     recorder at TRACE_MAX_OVERHEAD_PCT (default 5) percent;
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
INSTR_MAX_OVERHEAD_PCT="${INSTR_MAX_OVERHEAD_PCT:-5}"
TRACE_MAX_OVERHEAD_PCT="${TRACE_MAX_OVERHEAD_PCT:-5}"
# Floor for the flat-combining A/B gate: geomean of the per-round
# fc-vs-plain throughput ratios across both pairs (fc-globallock vs
# globallock, fc-mound vs mound). The fc-mound pair carries the win —
# the combiner drives the mound's exclusive-access paths, eliding all
# per-node locking — measuring 1.6–1.9x even on one core; the
# fc-globallock pair is a wash against an uncontended std mutex
# (0.93–0.99x). Acceptance target is 1.1; default 1.0 so noisy shared
# runners only fail on a real regression.
FC_MIN_SPEEDUP="${FC_MIN_SPEEDUP:-1.0}"

echo "== multiqueue vs. mq-sticky stickiness/buffer grid =="
cargo run -p pq-bench --release --offline --bin figures -- \
    --experiment fig4a \
    --queues multiqueue,mq-sticky-s1-m1,mq-sticky-s1-m16,mq-sticky-s8-m1,mq-sticky-s8-m16,mq-sticky-s64-m1,mq-sticky-s64-m16 \
    --threads "$THREADS" \
    --duration-ms "$DURATION_MS" \
    --metrics BENCH_multiqueue.json

echo "== flat-combining A/B + batch ablation (gates ${FC_MIN_SPEEDUP}x plain locked) =="
# Interleaved A/B of each flat-combining queue against its plain locked
# counterpart plus the m ∈ {1,4,16,64} batch-size frontier across the
# batching families; writes BENCH_flat_combining.json (see
# crates/bench/src/bin/batch_ablation.rs and EXPERIMENTS.md "Flat
# combining and batch-size ablation"). Exits non-zero if the fc-vs-plain
# geomean speedup falls below FC_MIN_SPEEDUP.
cargo run -p pq-bench --release --offline --bin batch_ablation -- \
    --threads "$THREADS" \
    --duration-ms "$DURATION_MS" \
    --min-speedup "$FC_MIN_SPEEDUP" \
    --out BENCH_flat_combining.json

echo "== instrumentation overhead (limit ${INSTR_MAX_OVERHEAD_PCT}%) =="
cargo run -p pq-bench --release --offline --bin instr_overhead -- \
    --threads "$THREADS" \
    --duration-ms "$DURATION_MS" \
    --max-overhead-pct "$INSTR_MAX_OVERHEAD_PCT"

echo "== flight-recorder overhead (trace feature, limit ${TRACE_MAX_OVERHEAD_PCT}%) =="
# Same A/B binary built with the trace feature: adds an arm that runs
# with the flight recorder actively capturing batch spans and gates it
# at TRACE_MAX_OVERHEAD_PCT percent of plain throughput, so the
# batch-granularity span design (no extra clock reads in the hot loop)
# cannot silently regress.
cargo run -p pq-bench --release --offline --features trace --bin instr_overhead -- \
    --threads "$THREADS" \
    --duration-ms "$DURATION_MS" \
    --max-overhead-pct "$INSTR_MAX_OVERHEAD_PCT" \
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
