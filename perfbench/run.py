#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The OCaml executable is built with
`--profile release` into `.bench_build/` (kept apart from `_build/`, so the
release build does not thrash the development one), then run once.  Build
output goes to stderr; the last line of stdout is the benchmark's JSON
result.  Exits non-zero, without a result, when the build fails or the
benchmark does not produce a well-formed result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("list-contended", "list-churn", "tree-range")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/bench.exe"],
        cwd=root, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark timed out")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"perfbench: benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
