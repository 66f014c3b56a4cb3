#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a small size (run.py --small),
untraced and traced, and checks that each run reports exactly the metrics
BENCHMARK.json names, with their units, passes its correctness checks,
and prints a well-formed result line. Then reruns each workload with a
deliberately wrong expectation (run.py --expect-wrong: a wrong victim, a
wrong source per packet, a perfect DDPM run taken as a failure)
and checks that the failures show up in the result. Exits 1 on any
problem. Takes about a minute.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--small", *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600, check=False)
    if done.returncode != 0:
        return None, done.stderr[-2000:]
    return json.loads(done.stdout.strip().split("\n")[-1]), done.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
        print(("ok    " if ok else "FAIL  ") + what, flush=True)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            result, text = run(workload, trace)
            if result is None:
                expect(False, f"{label}: run failed\n{text}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            expect(set(got) == set(want),
                   f"{label}: reports exactly the {key} metrics"
                   f" (missing {sorted(set(want) - set(got))},"
                   f" extra {sorted(set(got) - set(want))})")
            expect(all(got[n]["unit"] == want[n] for n in set(got) & set(want)),
                   f"{label}: every metric carries its declared unit")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in got.values()),
                   f"{label}: every value is a finite number")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correctness checks pass"
                   f" ({result['failed']}/{result['attempted']} failed)")
            if trace == 0:
                expect(all(got[n]["value"] > 0 for n in got),
                       f"{label}: end-to-end values are positive")

        result, text = run(workload, 0, "--expect-wrong")
        expect(result is not None and not result["correct"] and result["failed"] > 0,
               f"{workload}: a wrong expectation raises fail_ratio above 0"
               + (f" ({result['failed']}/{result['attempted']} failed)" if result else ""))

    print(f"\n{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
