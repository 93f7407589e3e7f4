#!/usr/bin/env python3
"""Builds and runs the end-to-end DSLog benchmark.

Usage, from the repository root:

    python3 bench_e2e/run.py --workload <ingest_pipelines|query_fig8> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the dslog library and the bench_e2e
binary (Release) under $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only check the build is current. Build output goes to
stderr. The binary's stdout is passed through: a report, then one JSON
result line. A failed build exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_pipelines", "query_fig8")
# bench_e2e finishes within --seconds plus set-up; this bounds a hang.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "bench_e2e"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as e:
            print(f"error: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"error: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "bench_e2e")
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "bench_e2e")
    work_dir = os.path.join(target, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("error: benchmark run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
