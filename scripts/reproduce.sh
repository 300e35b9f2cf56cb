#!/usr/bin/env bash
# Regenerate every artifact of the SPAA 2016 reproduction.
#
# Quick mode (default) finishes in ~20 minutes on a laptop; pass
# --paper-scale for the original parameters (10^6 prefill, 10 s windows,
# 10 repetitions — hours).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_ARGS="--prefill 100000 --duration-ms 150 --reps 3"
QUALITY_ARGS="--prefill 100000 --ops-per-thread 20000"
if [[ "${1:-}" == "--paper-scale" ]]; then
    SCALE_ARGS="--prefill 1000000 --duration-ms 10000 --reps 10"
    QUALITY_ARGS="--prefill 1000000 --ops-per-thread 200000"
fi

echo "== build =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace --release 2>&1 | tee test_output.txt

echo "== throughput figures (1-4, 8, extensions) =="
cargo run -q --release -p pq-bench --bin figures -- --all \
    --threads 1,2,4,8 $SCALE_ARGS | tee results_figures.txt

echo "== rank-error tables (1, 2, 5) =="
cargo run -q --release -p pq-bench --bin quality -- --all \
    --threads 2,4,8 $QUALITY_ARGS | tee results_quality.txt

echo "== latency (appendix F switch) =="
cargo run -q --release -p pq-bench --bin latency -- --threads 4 \
    | tee results_latency.txt

echo "== examples =="
for ex in quickstart sssp discrete_event_sim branch_and_bound queue_stats; do
    echo "-- $ex"
    cargo run -q --release -p pq-bench --example "$ex"
done

echo "done; see EXPERIMENTS.md for the paper-vs-measured comparison"
