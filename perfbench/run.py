#!/usr/bin/env python3
"""Repository benchmark: builds the load generator from source, runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (which
compiles the library modules under src/) into .bench_build/perfbench; later
calls rebuild incrementally. The load generator answers seeded requests for
--seconds seconds, checks every answer, and prints one JSON object as the last
line of standard output: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced pass with --trace 1 (its Chrome trace goes under
.bench_build/perfbench/traces). Workloads: serve_cold, serve_warm,
refine_static (BENCHMARK.json's), and serve_parallel, which reproduces the
nested-build defect recorded in perfbench/records.json. Exits nonzero,
printing no result, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        exe = build("perfbench_selftest")
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")

    exe = build("perfbench_loadgen")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "run"),
           "--trace-dir", os.path.join(BUILD, "traces")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"load generator exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("load generator printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
