#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--small] [--expect-wrong]

Run from the repository root. The program is configured with CMake into
.bench_build/ (Release, library sources from ../src) on first use and
rebuilt incrementally afterwards; build output goes to stderr. The
program's report goes to stdout, and its last line is the JSON result:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
A traced run (--trace 1) also writes its spans as a Chrome trace to
.bench_build/spans/<workload>-<seed>.json.

Exits non-zero without a result line when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the program; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--small", action="store_true",
                        help="shrink the workload (self-test size)")
    parser.add_argument("--expect-wrong", action="store_true",
                        help="perturb the expected outputs (self-test only)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not build():
        # A stale build tree (e.g. a moved checkout) gets one clean retry.
        shutil.rmtree(BUILD, ignore_errors=True)
        if not build():
            print("run.py: could not build the benchmark", file=sys.stderr)
            return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.small:
        cmd.append("--small")
    if args.expect_wrong:
        cmd.append("--expect-wrong")
    if args.trace == "1":
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        # Keep the report for diagnosis, but never a result line.
        print("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines),
              file=sys.stderr)
        return done.returncode
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print("\n".join(lines), file=sys.stderr)
        print("run.py: the program printed no valid result line", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
