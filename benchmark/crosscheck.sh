#!/usr/bin/env bash
# Does the ledger measure the program the product binaries ship?
#
# Runs one cell — multiqueue, uniform workload, uniform 32-bit keys,
# prefill 1e5, P = 2, 0.25 s windows — through the product binary
# `figures --experiment fig4a` (root workspace, release profile) and
# through the ledger's `uniform_p2` workload, and fails if the two
# throughputs differ by more than 10 %. `figures` counts every operation
# and the ledger only successful ones; on this cell no delete comes back
# empty, so the two counts are the same.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

figures=$(cargo run --quiet --release --offline -p pq-bench --bin figures -- \
    --experiment fig4a --queues multiqueue --threads 2 --prefill 100000 \
    --duration-ms 250 --reps 10 --seed 1 --csv | awk -F, '$2 == "multiqueue" { print $4 }')
ledger=$(bash benchmark/run.sh --workload uniform_p2 --seed 1 --seconds 20 --trace 0 | tail -n 1 |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["metrics"]["mops.multiqueue"]["value"])')

python3 - "$figures" "$ledger" <<'PY'
import sys
figures, ledger = map(float, sys.argv[1:])
off = abs(ledger - figures) / figures
print(f"figures fig4a multiqueue P=2: {figures:.3f} Mops/s (mean of 10 reps)")
print(f"ledger  uniform_p2 mops.multiqueue: {ledger:.3f} Mops/s (median of 10 rounds)")
print(f"difference: {100 * off:.1f} %")
sys.exit(0 if off <= 0.10 else 1)
PY
