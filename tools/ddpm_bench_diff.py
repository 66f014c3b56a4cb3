#!/usr/bin/env python3
"""ddpm_bench_diff.py — perf ratchet over BENCH_kernel.json snapshots.

Usage:
  python3 tools/ddpm_bench_diff.py BASELINE.json CURRENT.json
                                   [--tolerance 0.10] [--report OUT.md]
                                   [--floor NAME=VALUE ...]

Compares a freshly measured kernel-bench JSON against the committed
baseline, metric by metric. A metric that REGRESSES by more than the
tolerance (default 10%) fails the run; improvements of any size pass —
the ratchet only turns forward. When the numbers genuinely moved (new
engine, new hardware), regenerate the committed baseline deliberately:

  ./build-release/bench/bench_kernel --json BENCH_kernel.json

and commit it together with the change that moved it.

Direction is inferred from the unit: throughput units (ops/s, steps/s,
records/s, updates/s, x) are better-higher; duration units (s, ms) are
better-lower. Metrics
present on only one side are reported but never fail the diff (benches
come and go); what fails is only a shared metric moving the wrong way.

Provenance (compiler, build type, telemetry gate) is printed and
mismatches are WARNED, not failed: a RelWithDebInfo-vs-Release diff is
almost certainly measuring the build type, not the change under test.
Cross-host comparisons are similarly noisy — pick the tolerance to match
how comparable the two environments really are.

Floors are absolute bounds, orthogonal to the relative tolerance: the
baseline JSON may carry a `"floors": {"metric": value}` object, and any
floored metric whose CURRENT value lands on the wrong side of its floor
fails the diff even if the relative move is within tolerance. Direction
follows the unit — a floor on a better-higher metric (x, ops/s) is a
minimum, on a duration it is a maximum. `--floor NAME=VALUE` (repeatable)
adds or overrides a floor from the command line. This is what keeps
`sweep_speedup` from ever drifting below parity one tolerance-sized
nibble at a time.

Exit codes: 0 ratchet holds, 1 regression beyond tolerance or floor
violation, 2 usage.
"""

import argparse
import json
import sys

# Units where larger is better; anything else (s, ms, ...) is a duration.
HIGHER_IS_BETTER_UNITS = {"ops/s", "steps/s", "records/s", "updates/s", "x"}

PROVENANCE_KEYS = ("compiler", "build_type", "telemetry", "mode", "jobs")


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"ddpm_bench_diff: cannot read {path}: {e}")
    metrics = {}
    for r in doc.get("results", []):
        metrics[r["name"]] = (float(r["value"]), r.get("unit", ""))
    return doc, metrics


def main():
    ap = argparse.ArgumentParser(
        description="perf ratchet diff for BENCH_kernel.json")
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("current", help="freshly measured JSON")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="max fractional regression per metric "
                         "(default 0.10 = 10%%)")
    ap.add_argument("--report", metavar="OUT.md", default=None,
                    help="also write the table as markdown")
    ap.add_argument("--floor", metavar="NAME=VALUE", action="append",
                    default=[],
                    help="absolute floor for a metric; overrides the "
                         "baseline's floors object (repeatable)")
    args = ap.parse_args()
    if args.tolerance < 0:
        ap.error("--tolerance must be non-negative")

    base_doc, base = load(args.baseline)
    cur_doc, cur = load(args.current)

    floors = {}
    raw_floors = base_doc.get("floors", {})
    if not isinstance(raw_floors, dict):
        sys.exit(f"ddpm_bench_diff: 'floors' in {args.baseline} "
                 "must be an object")
    for name, value in raw_floors.items():
        try:
            floors[name] = float(value)
        except (TypeError, ValueError):
            sys.exit(f"ddpm_bench_diff: floor for {name!r} in "
                     f"{args.baseline} is not a number: {value!r}")
    for spec in args.floor:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            ap.error(f"--floor expects NAME=VALUE, got {spec!r}")
        try:
            floors[name] = float(value)
        except ValueError:
            ap.error(f"--floor value for {name!r} is not a number: {value!r}")

    warnings = []
    for key in PROVENANCE_KEYS:
        bv, cv = base_doc.get(key), cur_doc.get(key)
        if bv != cv:
            warnings.append(f"provenance mismatch: {key}: "
                            f"baseline={bv!r} current={cv!r}")

    def floor_breach(name, cval, unit):
        """Floor verdict text, or None. Direction follows the unit: a floor
        on a better-higher metric is a minimum, on a duration a maximum."""
        if name not in floors:
            return None
        limit = floors[name]
        higher_better = unit in HIGHER_IS_BETTER_UNITS
        if higher_better and cval < limit:
            return f"FLOOR VIOLATION ({cval:g} < floor {limit:g})"
        if not higher_better and cval > limit:
            return f"FLOOR VIOLATION ({cval:g} > ceiling {limit:g})"
        return None

    for name in floors:
        if name not in cur:
            warnings.append(f"floored metric '{name}' missing from current")

    rows = []          # (name, unit, base, cur, delta_frac, verdict)
    regressions = []
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            cval, unit = cur[name]
            breach = floor_breach(name, cval, unit)
            if breach:
                regressions.append(name)
            rows.append((name, unit, None, cval, None,
                         breach or "new metric"))
            continue
        if name not in cur:
            rows.append((name, base[name][1], base[name][0], None, None,
                         "missing in current"))
            warnings.append(f"metric '{name}' present in baseline only")
            continue
        bval, unit = base[name]
        cval, _ = cur[name]
        higher_better = unit in HIGHER_IS_BETTER_UNITS
        breach = floor_breach(name, cval, unit)
        if bval == 0:
            if breach:
                regressions.append(name)
            rows.append((name, unit, bval, cval, None,
                         breach or "zero baseline"))
            continue
        delta = (cval - bval) / bval
        regress = -delta if higher_better else delta
        if breach:
            verdict = breach
            regressions.append(name)
        elif regress > args.tolerance:
            verdict = f"REGRESSION ({regress:+.1%} worse)"
            regressions.append(name)
        elif regress > 0:
            verdict = "ok (within tolerance)"
        else:
            verdict = "ok (improved)" if regress < 0 else "ok (unchanged)"
        rows.append((name, unit, bval, cval, delta, verdict))

    lines = [
        f"# bench diff: {args.current} vs baseline {args.baseline}",
        "",
        f"tolerance: {args.tolerance:.0%} regression per metric; "
        "improvements always pass (forward-only ratchet)",
        "",
    ]
    if floors:
        lines += [
            "floors (absolute, direction per unit): " +
            ", ".join(f"{n}={v:g}" for n, v in sorted(floors.items())),
            "",
        ]
    lines += [
        "| metric | unit | baseline | current | delta | verdict |",
        "|---|---|---:|---:|---:|---|",
    ]
    for name, unit, bval, cval, delta, verdict in rows:
        fmt = lambda v: "-" if v is None else f"{v:,.6g}"
        dtxt = "-" if delta is None else f"{delta:+.1%}"
        lines.append(f"| {name} | {unit} | {fmt(bval)} | {fmt(cval)} "
                     f"| {dtxt} | {verdict} |")
    if warnings:
        lines.append("")
        for w in warnings:
            lines.append(f"- WARNING: {w}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)

    if regressions:
        print(f"ddpm_bench_diff: FAIL — {len(regressions)} metric(s) "
              f"regressed beyond {args.tolerance:.0%} or breached a floor: "
              + ", ".join(regressions), file=sys.stderr)
        return 1
    print(f"ddpm_bench_diff: OK — ratchet holds over {len(rows)} metric(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
