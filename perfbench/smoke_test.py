#!/usr/bin/env python3
"""Toy-size smoke test of the benchmark harness.

    python3 perfbench/smoke_test.py

Runs every workload at toy size, untraced and traced, and checks the output
contract: the last line is one JSON object with exactly the keys correct,
attempted, failed and metrics; every run is correct; the metric names and
units are BENCHMARK.json's end_to_end list (untraced) or per_layer list
(traced); the exact counts repeat across two traced runs of one seed; and
the benchmark refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep_large", "micro_ckpt", "certify_table1")
EXACT = ("engine.instants", "engine.activations", "engine.moves", "analysis.check_states",
         "analysis.check_transitions", "analysis.check_max_states",
         "analysis.adversary_states", "campaign.job_samples", "campaign.checkpoint_bytes")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1]), lines
    except (IndexError, json.JSONDecodeError):
        return None, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in WORKLOADS:
        traced = []
        for trace in (0, 1, 1):
            proc = run(workload, trace)
            result, lines = result_of(proc)
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0 and result is not None, f"{what}: exits 0 with a result")
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{what}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what}: correct, nothing failed")
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            check(units == expected[trace], f"{what}: metric names and units")
            values = [m["value"] for m in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) for v in values), f"{what}: numeric values")
            if trace == 0:
                check(all(v > 0 for v in values), f"{what}: end-to-end metrics never 0")
            else:
                traced.append(result["metrics"])
                check(any(line.startswith("seed 3 -> 4:") for line in lines),
                      f"{what}: second-seed check ran")
        if len(traced) == 2:
            same = all(traced[0][n]["value"] == traced[1][n]["value"] for n in EXACT)
            check(same, f"{workload}: exact counts repeat at a fixed seed")

    # Without the library sources the benchmark must fail without a result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run("certify_table1", 0, cwd=bare)
    result, _ = result_of(proc)
    check(proc.returncode != 0 and result is None, "without src/: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
