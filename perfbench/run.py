#!/usr/bin/env python3
"""Build the benchmark and run one workload (or all three).

Run from the repository root:

    python3 perfbench/run.py --workload churn-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench; later calls rebuild
incrementally. The binary's report is relayed as it is; the last line of
output is the run's JSON result. Records and span files go to .bench_out/.
The exit code is non-zero when the build fails, a run times out or a
correctness check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ["churn-large", "read-small", "snapshot-scan-sharded"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources missing: {ROOT / 'src'} (run from a full checkout)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = BUILD_DIR / "perfbench"
    if not exe.is_file():
        fail(f"built binary not found at {exe}")
    return exe


def run_one(exe, args, workload):
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--inject", args.inject, "--out", str(OUT_DIR)]
    try:
        # subprocess.run kills the child on timeout and waits for it.
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return r.returncode, lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: 1/100 of the key range (smoke tests)")
    p.add_argument("--inject", choices=["none", "drop-erase", "scan-disorder"],
                   default="none", help="negative controls of the correctness gate")
    args = p.parse_args()

    exe = build()
    if args.workload != "all":
        code, lines, result = run_one(exe, args, args.workload)
        print("\n".join(lines), flush=True)
        if result is None:
            fail(f"{args.workload}: no result line (exit code {code})")
        sys.exit(code)

    # All three in turn; the last line folds them, metrics keyed
    # "<workload>/<metric>".
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, lines, result = run_one(exe, args, w)
        print("\n".join(lines[:-1] if result else lines), flush=True)
        if result is None:
            fail(f"{w}: no result line (exit code {code})")
        worst = worst or code
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined), flush=True)
    sys.exit(worst)


if __name__ == "__main__":
    main()
