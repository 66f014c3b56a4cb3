#!/usr/bin/env python3
"""Same-box A/B of two checkouts on one or more perfbench workloads.

    python3 tools/perf_ab.py PARENT_DIR CHANGE_DIR --workload W
                             [--workload W2 ...] --seed S --seconds T
                             --pairs N [--allow-digest-change]

For each workload in the order given, runs `perfbench/run.py --trace 0`
in both checkouts N times each, in pairs, alternating which side runs
first (parent first in even pairs, change first in odd ones), so slow
drift of the machine hits both sides alike. Each checkout builds its own
program into its own .bench_build/.

For each workload, one table: for every end-to-end metric that
CHANGE_DIR/BENCHMARK.json declares, each side's median with its
quartiles, the ratio of the medians (change / parent), the pairs the
change won in that metric's better direction, and whether the gap
between the medians exceeds the parent's interquartile range.

Exit status: 0 when every run succeeded and nothing regressed; 1 when a
run failed (non-zero exit or no result line), reported `correct: false`
or `failed > 0`, or when the two sides printed different `digest:` lines
(the outputs moved; `--allow-digest-change` lifts only this check); 2 on
bad arguments. A workload that fails this way ends the run: later
workloads are not run.

Exit status 1 also when, in any workload, a metric's change median is
worse than its parent median by more than the `bound` BENCHMARK.json
gives it, in the metric's `better` direction (for higher-is-better,
change < parent * (1 - bound); for lower-is-better, change > parent *
(1 + bound)). Every workload still runs and prints its table; each
regression is named on stderr with its workload. A metric without a
`bound` is reported, not gated.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) of `values`, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def run_once(checkout, workload, args):
    """One run.py invocation; returns (result dict, digest lines) or raises
    RuntimeError with the reason the run does not count."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise RuntimeError(f"run.py exited {done.returncode}\n{tail}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise RuntimeError("run.py printed no result line") from None
    if result.get("correct") is not True:
        raise RuntimeError("the run reported correct: false")
    if result.get("failed", 0) > 0:
        raise RuntimeError(f"the run reported failed: {result['failed']}")
    digests = [ln for ln in lines if ln.startswith("digest:")]
    return metrics, digests


def end_to_end_metrics(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def regression(workload, spec, p_med, c_med):
    """The message naming a regression of one metric past its bound, or
    None when it is within the bound or has none."""
    bound = spec.get("bound")
    if bound is None or not p_med:
        return None
    if spec["better"] == "higher":
        worse = c_med < p_med * (1.0 - bound)
    else:
        worse = c_med > p_med * (1.0 + bound)
    if not worse:
        return None
    return (f"perf_ab: regression in {workload}: {spec['name']} median "
            f"{c_med:.4g} against the parent's {p_med:.4g} "
            f"({c_med / p_med:.3f}x; {spec['better']} is better, "
            f"bound {bound:g})")


def ab_workload(workload, sides, declared, args):
    """Runs the pairs of one workload and prints its table; returns
    (status, regressions): status 0, or 1 for a failed run or moved
    digests, and the messages of the metrics that regressed past their
    bound."""
    runs = {"parent": [], "change": []}
    digests = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                metrics, lines = run_once(sides[side], workload, args)
            except RuntimeError as err:
                print(f"perf_ab: {workload} pair {pair + 1}, {side}: {err}",
                      file=sys.stderr)
                return 1, []
            runs[side].append(metrics)
            digests[side].append(lines)
        print(f"perf_ab: {workload} pair {pair + 1}/{args.pairs} done "
              f"(first: {order[0]})", file=sys.stderr, flush=True)

    print(f"workload {workload}, seed {args.seed}, {args.seconds:g} s "
          f"runs, {args.pairs} pairs")
    print(f"{'metric':<16} {'better':<6} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'ratio':>7} {'won':>6}  gap>IQR")
    regressions = []
    for spec in declared:
        name, better = spec["name"], spec["better"]
        if not all(name in m for side in runs.values() for m in side):
            print(f"{name:<16} (missing from some runs)")
            continue
        values = {side: [m[name]["value"] for m in runs[side]] for side in runs}
        p_q1, p_med, p_q3 = quartiles(values["parent"])
        c_q1, c_med, c_q3 = quartiles(values["change"])
        sign = 1.0 if better == "higher" else -1.0
        won = sum(1 for p, c in zip(values["parent"], values["change"])
                  if sign * (c - p) > 0)
        ratio = f"{c_med / p_med:.3f}" if p_med else "n/a"
        gap = "yes" if abs(c_med - p_med) > (p_q3 - p_q1) else "no"
        print(f"{name:<16} {better:<6} "
              f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':<34} "
              f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':<34} "
              f"{ratio:>7} {f'{won}/{args.pairs}':>6}  {gap}")
        message = regression(workload, spec, p_med, c_med)
        if message:
            regressions.append(message)

    reference = digests["parent"][0]
    for side, per_run in digests.items():
        for i, lines in enumerate(per_run):
            if lines != reference:
                print(f"perf_ab: {workload} {side} run {i + 1} digests "
                      f"{lines} differ from the parent's first run "
                      f"{reference}", file=sys.stderr)
                if not args.allow_digest_change:
                    return 1, regressions
    for line in reference:
        print(f"parent {line}")
    if digests["change"][0] != reference:
        for line in digests["change"][0]:
            print(f"change {line}")
    return 0, regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat to A/B several workloads, one table each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--allow-digest-change", action="store_true",
                        help="report, but do not fail on, moved digests")
    args = parser.parse_args()
    if len(set(args.workload)) != len(args.workload):
        parser.error("--workload names a workload twice")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    for name, checkout in sides.items():
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            parser.error(f"{name} checkout {checkout} has no perfbench/run.py")
    try:
        declared = end_to_end_metrics(args.change_dir)
    except (OSError, ValueError, KeyError) as err:
        parser.error(f"cannot read {args.change_dir}/BENCHMARK.json: {err}")

    status, regressions = 0, []
    for n, workload in enumerate(args.workload):
        if n > 0:
            print()
        status, found = ab_workload(workload, sides, declared, args)
        regressions += found
        if status != 0:
            break
    for message in regressions:
        print(message, file=sys.stderr)
    return 1 if status or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
