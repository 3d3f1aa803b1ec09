#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from the root of a checkout.  Builds the harness and the lumi library
from the checkout's sources into .bench_build/perfbench (incremental after
the first run), then runs one workload:

  --trace 0  end-to-end metrics, measured with telemetry off.  setup_s is the
             median over several fresh processes, each timed from its start
             to the point where the first job would be dispatched.
  --trace 1  the separate traced run, printing the per-layer metrics.

Every line but the last is a human-readable report; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  Exits
non-zero without printing a result when the build or the run fails, and
non-zero after the result when an output check failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
EXE = os.path.join(BUILD_DIR, "lumi_perfbench")
WORKLOADS = ("sweep_large", "micro_ckpt", "certify_table1")
# Fresh processes timed for setup_s (the measuring process adds one more).
SETUP_SAMPLES = 15
# Every run must end within this many seconds after the build.
RUN_DEADLINE_S = 170
# Parallel compile jobs: few enough to keep the build's memory small.
BUILD_JOBS = min(4, len(os.sched_getaffinity(0)))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "campaign", "campaign.hpp")):
        fail("no library sources under src/ in " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def harness(args, extra, timeout):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--work-dir", WORK_DIR] + extra
    if args.toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish within {timeout:.0f} s")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{' '.join(cmd)} exited {proc.returncode} without a result")
    return proc.returncode, lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny job lists, for the harness smoke test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S

    setup = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES):
            _, _, sample = harness(args, ["--setup-only"], deadline - time.monotonic())
            setup.append(sample["setup_s"])

    code, report, result = harness(args, [], deadline - time.monotonic())
    if args.trace == 0:
        metric = result["metrics"]["setup_s"]
        setup.append(metric["value"])
        metric["value"] = statistics.median(setup)
        report.append(f"setup_s samples (s): {' '.join(f'{s:.4f}' for s in setup)}")
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
