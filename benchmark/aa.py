#!/usr/bin/env python3
"""A/A check: is the ledger steady enough to carry its own bounds?

Runs the end-to-end pass of every workload `--runs` times, each time
with another seed, and does that `--sets` times on the same build. For
each end-to-end metric it reports

  spread  distance between the first and third quartile of the runs'
          values (statistics.quantiles, n=4) as a share of their median;
  shift   how much worse the second set's median is than the first's.

and fails if a spread (setup_s excepted) or a shift exceeds the metric's
bound in BENCHMARK.json, or if a run fails. The numbers, with every
run's per-round throughputs (for re-sizing rounds or trying another
estimator), go to benchmark/out/aa.json.

  python3 benchmark/aa.py                      # the full check, ~40 min
  python3 benchmark/aa.py --runs 4 --sets 1    # a quick look at spreads
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        return f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}", wall, None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        return f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}", wall, None
    return {name: m["value"] for name, m in result["metrics"].items()}, wall, cells_of(workload)


def cells_of(workload):
    """Per-round throughput of every queue, from the run's report file."""
    report = json.loads((HERE / "out" / f"ledger.{workload}.e2e.json").read_text())
    return {k.removeprefix("cells."): [c["mops"] for c in v] for k, v in report["detail"].items() if k.startswith("cells.")}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better):
    """Share of `first` by which `second` is worse (negative = better)."""
    return (first - second) / first if better == "higher" else (second - first) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs (seeds) per workload and set")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs on the same build")
    ap.add_argument("--workloads", help="comma-separated subset of the workloads")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = bench["end_to_end"]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    # values[set][workload][metric] -> list over seeds
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    rounds = [{w: [] for w in workloads} for _ in range(args.sets)]
    walls = []
    failures = []
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                got, wall, cells = run_once(bench["command"], w, seed, bench["run_seconds"])
                walls.append(wall)
                if cells is None:  # the run failed; `got` says how
                    failures.append(got)
                    print(got, file=sys.stderr, flush=True)
                    continue
                rounds[s][w].append(cells)
                for name, v in got.items():
                    values[s][w][name].append(v)
                print(f"set {s + 1} {w} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)

    report = {"runs": args.runs, "sets": args.sets, "max_wall_s": max(walls), "workloads": {}, "rounds": rounds}
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<22}{'bound':>7}" + "".join(f"{f'median{s + 1}':>12}{f'spread{s + 1}':>9}" for s in range(args.sets)) + f"{'shift':>9}")
        report["workloads"][w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = [statistics.median(values[s][w][name]) for s in range(args.sets)]
            spreads = [spread(values[s][w][name]) if args.runs >= 2 else 0.0 for s in range(args.sets)]
            shift = worsening(medians[0], medians[-1], m["better"]) if args.sets > 1 else 0.0
            flags = ""
            if name != "setup_s" and max(spreads) > bound:
                failures.append(f"{w} {name}: spread {max(spreads):.3f} > bound {bound}")
                flags += " SPREAD"
            elif name != "setup_s" and max(spreads) > bound / 3:
                flags += " (spread above a third of the bound)"
            if shift > bound:
                failures.append(f"{w} {name}: second median worse by {shift:.3f} > bound {bound}")
                flags += " SHIFT"
            print(f"  {name:<22}{bound:>7.2f}" + "".join(f"{md:>12.4f}{sp:>9.3f}" for md, sp in zip(medians, spreads)) + f"{shift:>9.3f}{flags}")
            report["workloads"][w][name] = {
                "bound": bound,
                "medians": medians,
                "spreads": spreads,
                "shift": shift,
                "values": [values[s][w][name] for s in range(args.sets)],
            }

    out = HERE / "out" / "aa.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nlongest run {max(walls):.1f} s; details in {out.relative_to(ROOT)}")
    if failures:
        print("\nA/A FAILED:\n  " + "\n  ".join(failures))
        sys.exit(1)
    print("A/A passed: every spread and shift is within its bound")


if __name__ == "__main__":
    main()
