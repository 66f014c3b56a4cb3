#!/usr/bin/env python3
"""Unit tests for the ratchet tooling itself (registered as ctest
`tool_ratchet_unit`).

Covers tools/ddpm_bench_diff.py (relative tolerance, direction-per-unit,
missing metrics, the absolute floors mechanism and its --floor override)
and tools/ddpm_verify_diff.py (verdict projection, drift detection,
pass=false gating, --update regeneration). Everything runs the real
scripts as subprocesses against temp files, so the exit codes tested
here are exactly what CI sees.

Run directly (python3 tools/test_tool_ratchets.py) or via ctest.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIFF = os.path.join(TOOLS_DIR, "ddpm_bench_diff.py")
VERIFY_DIFF = os.path.join(TOOLS_DIR, "ddpm_verify_diff.py")


def run(script, *args):
    return subprocess.run([sys.executable, script, *list(args)],
                          capture_output=True, text=True)


def write_json(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


BENCH_DOC = {
    "bench": "kernel",
    "compiler": "GNU 12.2.0",
    "build_type": "Release",
    "mode": "full",
    "jobs": 1,
    "results": [
        {"name": "eq_churn", "value": 5.0e6, "unit": "ops/s"},
        {"name": "sweep_serial", "value": 3.3, "unit": "s"},
        {"name": "sweep_speedup", "value": 1.01, "unit": "x"},
        {"name": "trace_replay", "value": 1.0e7, "unit": "records/s"},
    ],
    "floors": {"sweep_speedup": 0.99},
}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.base = write_json(self.tmp.name, "base.json", BENCH_DOC)

    def current(self, mutate=None, **overrides):
        doc = copy.deepcopy(BENCH_DOC)
        doc.update(overrides)
        if mutate:
            mutate(doc)
        return write_json(self.tmp.name, "cur.json", doc)

    def set_metric(self, doc, name, value):
        for r in doc["results"]:
            if r["name"] == name:
                r["value"] = value
                return
        raise KeyError(name)

    def test_identical_accepts(self):
        p = run(BENCH_DIFF, self.base, self.current())
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("ratchet holds", p.stdout)

    def test_regression_beyond_tolerance_rejects(self):
        cur = self.current(
            mutate=lambda d: self.set_metric(d, "eq_churn", 4.0e6))  # -20%
        p = run(BENCH_DIFF, self.base, cur)
        self.assertEqual(p.returncode, 1)
        self.assertIn("eq_churn", p.stderr)

    def test_regression_within_tolerance_accepts(self):
        cur = self.current(
            mutate=lambda d: self.set_metric(d, "eq_churn", 4.7e6))  # -6%
        p = run(BENCH_DIFF, self.base, cur)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_improvement_of_any_size_accepts(self):
        cur = self.current(
            mutate=lambda d: self.set_metric(d, "eq_churn", 5.0e7))
        p = run(BENCH_DIFF, self.base, cur)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_duration_direction_is_lower_better(self):
        cur = self.current(
            mutate=lambda d: self.set_metric(d, "sweep_serial", 4.0))  # +21%
        p = run(BENCH_DIFF, self.base, cur)
        self.assertEqual(p.returncode, 1)
        self.assertIn("sweep_serial", p.stderr)

    def test_bench_kernel_rates_are_higher_better(self):
        # trace_replay (records/s) and sketch_update (updates/s) are rates:
        # slower must reject, faster must pass.
        slower = self.current(
            mutate=lambda d: self.set_metric(d, "trace_replay", 8.0e6))
        p = run(BENCH_DIFF, self.base, slower)
        self.assertEqual(p.returncode, 1)
        self.assertIn("trace_replay", p.stderr)
        faster = self.current(
            mutate=lambda d: self.set_metric(d, "trace_replay", 2.0e7))
        p = run(BENCH_DIFF, self.base, faster)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_metric_missing_from_current_warns_but_accepts(self):
        cur = self.current(mutate=lambda d: d["results"].pop(0))  # eq_churn
        p = run(BENCH_DIFF, self.base, cur)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("present in baseline only", p.stdout)

    def test_new_metric_in_current_accepts(self):
        cur = self.current(mutate=lambda d: d["results"].append(
            {"name": "brand_new", "value": 1.0, "unit": "ops/s"}))
        p = run(BENCH_DIFF, self.base, cur)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("new metric", p.stdout)

    def test_floor_breach_rejects_even_within_tolerance(self):
        # -6% is inside the 10% tolerance, but 0.95 < floor 0.99.
        cur = self.current(
            mutate=lambda d: self.set_metric(d, "sweep_speedup", 0.95))
        p = run(BENCH_DIFF, self.base, cur)
        self.assertEqual(p.returncode, 1)
        self.assertIn("FLOOR VIOLATION", p.stdout)

    def test_floor_satisfied_accepts(self):
        cur = self.current(
            mutate=lambda d: self.set_metric(d, "sweep_speedup", 0.995))
        p = run(BENCH_DIFF, self.base, cur)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_cli_floor_overrides_baseline(self):
        p = run(BENCH_DIFF, self.base, self.current(),
                "--floor", "sweep_speedup=1.5")
        self.assertEqual(p.returncode, 1)
        self.assertIn("FLOOR VIOLATION", p.stdout)

    def test_cli_floor_on_duration_is_a_ceiling(self):
        p = run(BENCH_DIFF, self.base, self.current(),
                "--floor", "sweep_serial=1.0")
        self.assertEqual(p.returncode, 1)
        self.assertIn("ceiling", p.stdout)

    def test_malformed_floor_spec_is_usage_error(self):
        p = run(BENCH_DIFF, self.base, self.current(), "--floor", "nonsense")
        self.assertEqual(p.returncode, 2)

    def test_floored_metric_missing_from_current_warns(self):
        def drop_speedup(doc):
            doc["results"] = [r for r in doc["results"]
                              if r["name"] != "sweep_speedup"]
        p = run(BENCH_DIFF, self.base, self.current(mutate=drop_speedup))
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("floored metric 'sweep_speedup' missing", p.stdout)

    def test_provenance_mismatch_warns_but_accepts(self):
        p = run(BENCH_DIFF, self.base, self.current(build_type="Debug"))
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("provenance mismatch", p.stdout)

    def test_unreadable_input_is_usage_error(self):
        p = run(BENCH_DIFF, self.base,
                os.path.join(self.tmp.name, "missing.json"))
        self.assertNotEqual(p.returncode, 0)
        self.assertIn("cannot read", p.stderr + p.stdout)


VERIFY_DOC = {
    "cdg": [
        {"topology": "torus:4x4", "router": "dor", "supported": True,
         "declared": True, "cyclic": False, "escape_acyclic": True,
         "pass": True, "dependencies": 123, "note": "free text"},
    ],
    "invariant": [
        {"topology": "mesh:4x4", "exhaustive_pairs": True,
         "codec_roundtrip": True, "holds": True, "pass": True},
    ],
    "injectivity": [
        {"topology": "hypercube:16", "exhaustive": True, "injective": True,
         "pass": True},
    ],
    "width": [
        {"check": "marking-field", "pass": True},
    ],
    "model": [
        {"topology": "mesh:2x2", "router": "dor", "vcs": 2, "depth": 1,
         "states": 29120, "transitions": 49364, "complete": True,
         "credit_conservation": True, "no_overflow": True, "no_loss": True,
         "escape_reachable": True, "bounded_progress": True, "pass": True,
         "note": "free text"},
    ],
}


class VerifyDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.baseline = os.path.join(self.tmp.name, "baseline.json")
        report = write_json(self.tmp.name, "seed.json", VERIFY_DOC)
        p = run(VERIFY_DIFF, report, "--baseline", self.baseline, "--update")
        assert p.returncode == 0, p.stderr

    def check(self, doc):
        report = write_json(self.tmp.name, "report.json", doc)
        return run(VERIFY_DIFF, report, "--baseline", self.baseline)

    def test_matching_report_accepts(self):
        p = self.check(VERIFY_DOC)
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("match the baseline", p.stdout)

    def test_failing_verdict_rejects_even_if_baselined(self):
        doc = copy.deepcopy(VERIFY_DOC)
        doc["width"][0]["pass"] = False
        report = write_json(self.tmp.name, "failing.json", doc)
        # Baseline the failing shape, then diff against it: pass=false must
        # still fail — the baseline never records a tolerated failure.
        bad_baseline = os.path.join(self.tmp.name, "bad_baseline.json")
        run(VERIFY_DIFF, report, "--baseline", bad_baseline, "--update")
        p = run(VERIFY_DIFF, report, "--baseline", bad_baseline)
        self.assertEqual(p.returncode, 1)
        self.assertIn("FAIL width", p.stdout)

    def test_changed_outcome_is_drift(self):
        doc = copy.deepcopy(VERIFY_DOC)
        doc["cdg"][0]["cyclic"] = True
        doc["cdg"][0]["pass"] = True  # outcome changed, still "passing"
        p = self.check(doc)
        self.assertEqual(p.returncode, 1)
        self.assertIn("CHANGED cdg", p.stdout)

    def test_unstable_fields_do_not_drift(self):
        doc = copy.deepcopy(VERIFY_DOC)
        doc["cdg"][0]["dependencies"] = 9999  # counter: not projected
        doc["cdg"][0]["note"] = "reworded"    # free text: not projected
        p = self.check(doc)
        self.assertEqual(p.returncode, 0, p.stderr)

    def test_added_and_removed_rows_are_drift(self):
        doc = copy.deepcopy(VERIFY_DOC)
        doc["cdg"].append({"topology": "torus:8x8", "router": "adaptive",
                           "supported": True, "declared": True,
                           "cyclic": False, "escape_acyclic": True,
                           "pass": True})
        del doc["injectivity"][0]
        p = self.check(doc)
        self.assertEqual(p.returncode, 1)
        self.assertIn("ADDED   cdg", p.stdout)
        self.assertIn("REMOVED injectivity", p.stdout)

    def test_missing_baseline_rejects_with_hint(self):
        report = write_json(self.tmp.name, "r.json", VERIFY_DOC)
        p = run(VERIFY_DIFF, report, "--baseline",
                os.path.join(self.tmp.name, "nonexistent.json"))
        self.assertEqual(p.returncode, 1)
        self.assertIn("--update", p.stderr)

    def test_missing_report_is_usage_error(self):
        p = run(VERIFY_DIFF, os.path.join(self.tmp.name, "nope.json"),
                "--baseline", self.baseline)
        self.assertEqual(p.returncode, 2)

    def test_only_scopes_the_diff_to_named_sections(self):
        # A model-only report (ddpm_verify --model) would drift every other
        # section as REMOVED without scoping; --only model diffs cleanly.
        doc = {"model": copy.deepcopy(VERIFY_DOC["model"])}
        report = write_json(self.tmp.name, "model_only.json", doc)
        p = run(VERIFY_DIFF, report, "--baseline", self.baseline)
        self.assertEqual(p.returncode, 1)
        self.assertIn("REMOVED", p.stdout)
        p = run(VERIFY_DIFF, report, "--baseline", self.baseline,
                "--only", "model")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("match the baseline", p.stdout)

    def test_only_still_catches_model_drift(self):
        doc = {"model": copy.deepcopy(VERIFY_DOC["model"])}
        doc["model"][0]["bounded_progress"] = False
        doc["model"][0]["pass"] = True  # outcome changed, still "passing"
        report = write_json(self.tmp.name, "model_drift.json", doc)
        p = run(VERIFY_DIFF, report, "--baseline", self.baseline,
                "--only", "model")
        self.assertEqual(p.returncode, 1)
        self.assertIn("CHANGED model", p.stdout)

    def test_only_unknown_section_is_usage_error(self):
        report = write_json(self.tmp.name, "r2.json", VERIFY_DOC)
        p = run(VERIFY_DIFF, report, "--baseline", self.baseline,
                "--only", "nope")
        self.assertEqual(p.returncode, 2)
        self.assertIn("unknown section", p.stderr)

    def test_only_cannot_update_the_baseline(self):
        report = write_json(self.tmp.name, "r3.json", VERIFY_DOC)
        p = run(VERIFY_DIFF, report, "--baseline", self.baseline,
                "--only", "model", "--update")
        self.assertEqual(p.returncode, 2)

    def test_update_writes_projected_baseline(self):
        with open(self.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        self.assertEqual(set(baseline),
                         {"cdg", "invariant", "injectivity", "width",
                          "model"})
        row = baseline["cdg"]["torus:4x4|dor"]
        self.assertNotIn("dependencies", row)  # counters are projected out
        self.assertIs(row["pass"], True)


ANALYZE = os.path.join(TOOLS_DIR, "ddpm_analyze.py")

# Two violations of two different rules inside one DDPM_HOT function: the
# smallest tree that lets the tests tell "scoped out" apart from "fixed".
HOT_FIXTURE = """\
#include <sstream>

#define DDPM_HOT

namespace fix {

DDPM_HOT int hot_entry(int a, int b) {
  int q = a / b;
  std::ostringstream os;
  os << q;
  return q;
}

}  // namespace fix
"""


class AnalyzeTest(unittest.TestCase):
    """CLI tests for ddpm_analyze --only and --facts-cache against a
    minimal synthetic repo (one hot function, two rule violations)."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        os.mkdir(os.path.join(self.tmp.name, "src"))
        self.source = os.path.join(self.tmp.name, "src", "hot.cpp")
        self.write_source(HOT_FIXTURE)

    def write_source(self, text):
        with open(self.source, "w", encoding="utf-8") as fh:
            fh.write(text)

    def analyze(self, *args):
        return run(ANALYZE, "--frontend", "textual",
                   "--baseline", "baseline.json", self.tmp.name, *args)

    def test_unscoped_run_reports_both_rules(self):
        p = self.analyze()
        self.assertEqual(p.returncode, 1)
        self.assertIn("hot-no-div", p.stdout)
        self.assertIn("hot-no-throw-io", p.stdout)

    def test_only_restricts_to_the_named_rule(self):
        p = self.analyze("--only", "hot-no-div")
        self.assertEqual(p.returncode, 1)
        self.assertIn("hot-no-div", p.stdout)
        self.assertNotIn("hot-no-throw-io", p.stdout)

    def test_only_rule_without_findings_is_clean(self):
        p = self.analyze("--only", "hot-no-lock")
        self.assertEqual(p.returncode, 0, p.stderr)
        self.assertIn("clean", p.stdout)

    def test_only_accepts_a_comma_separated_list(self):
        p = self.analyze("--only", "hot-no-div,hot-no-throw-io")
        self.assertEqual(p.returncode, 1)
        self.assertIn("hot-no-div", p.stdout)
        self.assertIn("hot-no-throw-io", p.stdout)

    def test_only_unknown_rule_is_usage_error(self):
        p = self.analyze("--only", "no-such-rule")
        self.assertEqual(p.returncode, 2)
        self.assertIn("unknown rule", p.stderr)
        self.assertIn("known rules", p.stderr)

    def test_only_empty_list_is_usage_error(self):
        p = self.analyze("--only", ",")
        self.assertEqual(p.returncode, 2)

    def test_only_cannot_update_the_baseline(self):
        p = self.analyze("--only", "hot-no-div", "--update-baseline")
        self.assertEqual(p.returncode, 2)
        self.assertIn("--update-baseline", p.stderr)

    def test_facts_cache_hits_on_identical_tree(self):
        cache = os.path.join(self.tmp.name, "facts.cache")
        cold = self.analyze("--facts-cache", cache)
        self.assertEqual(cold.returncode, 1)
        self.assertNotIn("facts cache hit", cold.stdout)
        self.assertTrue(os.path.exists(cache))
        warm = self.analyze("--facts-cache", cache)
        self.assertEqual(warm.returncode, 1)
        self.assertIn("facts cache hit", warm.stdout)
        # Findings (and their fingerprints) must be byte-identical.
        pick = lambda out: sorted(  # noqa: E731
            ln for ln in out.splitlines() if "[hot-" in ln)
        self.assertEqual(pick(cold.stdout), pick(warm.stdout))

    def test_facts_cache_invalidates_when_a_file_changes(self):
        cache = os.path.join(self.tmp.name, "facts.cache")
        self.analyze("--facts-cache", cache)
        self.write_source(HOT_FIXTURE.replace("a / b", "a >> 1"))
        p = self.analyze("--facts-cache", cache)
        self.assertEqual(p.returncode, 1)
        self.assertNotIn("facts cache hit", p.stdout)
        self.assertNotIn("hot-no-div", p.stdout)  # stale facts would flag it
        self.assertIn("hot-no-throw-io", p.stdout)

    def test_corrupt_cache_falls_back_to_a_cold_run(self):
        cache = os.path.join(self.tmp.name, "facts.cache")
        self.analyze("--facts-cache", cache)
        with open(cache, "wb") as fh:
            fh.write(b"not a pickle")
        p = self.analyze("--facts-cache", cache)
        self.assertEqual(p.returncode, 1)
        self.assertNotIn("facts cache hit", p.stdout)
        self.assertIn("hot-no-div", p.stdout)


if __name__ == "__main__":
    unittest.main()
