#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build perf_ledger from
# source if needed, then run it with the arguments given.
#
#   bash benchmark/run.sh --workload uniform_p2 --seed 1 --seconds 20 --trace 0
#
# `--trace 1` selects the traced pass, which is built with the queues'
# internal event counters (`--features telemetry`); the end-to-end pass
# is always the product build. Both builds share one target directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

features=()
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        features=(--features telemetry)
    fi
    prev="$arg"
done

exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" \
    "${features[@]}" --bin perf_ledger -- --out-dir "$here/out" "$@"
