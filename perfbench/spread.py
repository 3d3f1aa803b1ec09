#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per seed, then prints for every metric its
median, its first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median.  With --trace 0 each spread is compared with a
third of the metric's bound in BENCHMARK.json, the margin the benchmark is
tuned to.  Exits non-zero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            sys.exit(f"seed {seed}: run failed with exit code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}"
                                          for n, m in result["metrics"].items()
                                          if n in bounds or args.trace == 1), flush=True)

    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound/3")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        limit = bounds[name] / 3 if name in bounds else None
        verdict = "" if limit is None else f"{limit:.4f} {'ok' if spread < limit else 'WIDE'}"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {verdict}")


if __name__ == "__main__":
    main()
