#!/usr/bin/env python3
"""Steadiness check: runs one workload N times, one seed per run.

    python3 perfbench/steady.py --workload audio_open --runs 10 [--seconds 10]
                                [--first-seed 1] [--trace 0] [--per-run]

First prints a host stall probe (the share of wall time a bare spin loop
loses in gaps over 50 us, and the longest gap), then for every metric its
median, quartiles and (q3 - q1) / median over the runs, next to the bound
BENCHMARK.json gives it. --per-run also prints every run's values, in run
order, which shows whether a wide spread is one outlier or a drift.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own build-and-run script)


def bounds():
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    data = json.loads(spec.read_text())
    return {m["name"]: m.get("bound") for m in data.get("end_to_end", [])}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: run failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--per-run", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    binary = run.build(run.build_dir())
    subprocess.run([str(binary), "--stall-probe", "2"], check=True)
    results = [run_once(args.workload, args.first_seed + i, args.seconds,
                        args.trace) for i in range(args.runs)]
    limits = bounds()
    names = sorted(results[0]["metrics"])
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = limits.get(name)
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
        if args.per_run:
            print(" " * 4 + " ".join(f"{v:.6g}" for v in values))
    failed = sum(r["failed"] for r in results)
    print(f"all runs correct: {all(r['correct'] for r in results)}, "
          f"failed operations: {failed}")


if __name__ == "__main__":
    main()
