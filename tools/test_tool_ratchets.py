#!/usr/bin/env python3
"""Unit tests for the ratchet tooling itself (registered as ctest
`tool_ratchet_unit`).

Covers tools/ddpm_verify_diff.py (verdict projection, drift detection,
pass=false gating, --update regeneration), tools/ddpm_analyze.py's CLI,
ddpm_lint.py's series-documented rule and tools/perf_ab.py (against stub
perfbench/run.py scripts, so nothing is built). Everything runs the real
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
VERIFY_DIFF = os.path.join(TOOLS_DIR, "ddpm_verify_diff.py")
LINT = os.path.join(TOOLS_DIR, "ddpm_lint.py")
PERF_AB = os.path.join(TOOLS_DIR, "perf_ab.py")

sys.path.insert(0, TOOLS_DIR)
import ddpm_lint  # noqa: E402  (REQUIRED_DOCS)


def run(script, *args):
    return subprocess.run([sys.executable, script, *list(args)],
                          capture_output=True, text=True)


def write_json(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


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
        return run(ANALYZE, "--baseline", "baseline.json", self.tmp.name,
                   *args)

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


SERIES_SOURCE = """\
void bind(Registry* registry, Tracer* tracer) {
  a_ = registry->counter("x.one");
  b_ = registry_.gauge(
      "x.two");
  tracer->counter("x.track", 0, 1.0);  // a trace track, not a series
}
"""


class LintSeriesDocumentedTest(unittest.TestCase):
    """ddpm_lint's series-documented rule over a temporary tree: a series
    registered without a catalogue row and a row without a series both
    fail; the tree passes once the two agree."""

    def write(self, rel, text):
        path = os.path.join(self.tmp.name, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def catalogue(self, *names):
        rows = "".join(f"| `{n}` | counter | none | a.cpp | m |\n"
                       for n in names)
        self.write("docs/OBSERVABILITY.md",
                   "# Observability\n\n## Series catalogue\n\n"
                   "| series | kind | labels | source | meaning |\n"
                   "| --- | --- | --- | --- | --- |\n" + rows +
                   "\n## Event tracer\n\n| `x.track` | not a row |\n")

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        for doc in ddpm_lint.REQUIRED_DOCS:
            self.write(doc, "x\n")
        self.write("src/a.cpp", SERIES_SOURCE)

    def test_registrations_and_catalogue_must_agree(self):
        self.catalogue("x.one", "x.gone")
        p = run(LINT, self.tmp.name)
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("src/a.cpp:3: [series-documented] series 'x.two'",
                      p.stdout)
        self.assertIn("catalogue row 'x.gone' names a series src/ no longer"
                      " registers", p.stdout)
        self.assertNotIn("x.track", p.stdout)
        self.assertNotIn("'x.one'", p.stdout)

        self.catalogue("x.one", "x.two")
        p = run(LINT, self.tmp.name)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)


# A stand-in for perfbench/run.py: logs its side and arguments, then prints
# the next work_per_s value of its checkout's stub.json and a result line.
# `work_<workload>` / `digest_<workload>` keys override `work` / `digest`
# for one workload.
STUB_RUN = """\
import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(root, "stub.json")) as fh:
    cfg = json.load(fh)
log = os.environ["PERF_AB_STUB_LOG"]
with open(log, "a") as fh:
    fh.write(cfg["side"] + " " + " ".join(sys.argv[1:]) + "\\n")
with open(log) as fh:
    n = sum(1 for line in fh if line.startswith(cfg["side"] + " ")) - 1
if cfg.get("exit", 0):
    print("build failed", file=sys.stderr)
    sys.exit(cfg["exit"])
wl = sys.argv[sys.argv.index("--workload") + 1]
print("digest: " + cfg.get("digest_" + wl, cfg.get("digest", "00ff")))
works = cfg.get("work_" + wl, cfg["work"])
work = works[n % len(works)]
print(json.dumps({"correct": cfg.get("correct", True), "attempted": 3,
                  "failed": cfg.get("failed", 0),
                  "metrics": {"setup_s": {"value": cfg.get("setup", 0.5),
                                          "unit": "s"},
                              "work_per_s": {"value": work,
                                             "unit": "items/s"}}}))
"""


class PerfAbTest(unittest.TestCase):
    def checkout(self, side, bounds=None, **cfg):
        """A stub checkout; `bounds` maps metric name to its BENCHMARK.json
        bound (metrics left out have none and are not gated)."""
        root = os.path.join(self.tmp.name, side)
        os.makedirs(os.path.join(root, "perfbench"))
        with open(os.path.join(root, "perfbench", "run.py"), "w",
                  encoding="utf-8") as fh:
            fh.write(STUB_RUN)
        write_json(root, "stub.json", {"side": side, **cfg})
        declared = [
            {"name": "setup_s", "unit": "s", "better": "lower"},
            {"name": "work_per_s", "unit": "items/s", "better": "higher"},
        ]
        for spec in declared:
            if bounds and spec["name"] in bounds:
                spec["bound"] = bounds[spec["name"]]
        write_json(root, "BENCHMARK.json", {"end_to_end": declared})
        return root

    def ab(self, parent, change, *extra, pairs="4", workloads=("w1",)):
        env = dict(os.environ, PERF_AB_STUB_LOG=self.log)
        named = [arg for w in workloads for arg in ("--workload", w)]
        return subprocess.run(
            [sys.executable, PERF_AB, parent, change, *named,
             "--seed", "7", "--seconds", "0.5", "--pairs", pairs, *extra],
            capture_output=True, text=True, env=env)

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.log = os.path.join(self.tmp.name, "runs.log")

    def test_alternates_sides_and_reports_medians(self):
        parent = self.checkout("parent", work=[100.0, 110.0, 90.0, 100.0])
        change = self.checkout("change", work=[120.0, 130.0, 95.0, 125.0])
        p = self.ab(parent, change)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        with open(self.log, encoding="utf-8") as fh:
            runs = fh.read().splitlines()
        self.assertEqual([r.split()[0] for r in runs],
                         ["parent", "change", "change", "parent",
                          "parent", "change", "change", "parent"])
        self.assertEqual(runs[0].split()[1:],
                         ["--workload", "w1", "--seed", "7", "--seconds",
                          "0.5", "--trace", "0"])
        row = next(l for l in p.stdout.splitlines()
                   if l.startswith("work_per_s"))
        # Medians 100 and 122.5; the change won every pair, and the gap
        # exceeds the parent's IQR (97.5 .. 102.5).
        self.assertIn("100 [97.5, 102.5]", row)
        self.assertIn("122.5 [113.8, 126.2]", row)
        self.assertIn("1.225", row)
        self.assertIn("4/4", row)
        self.assertTrue(row.endswith("yes"), row)
        setup = next(l for l in p.stdout.splitlines()
                     if l.startswith("setup_s"))
        self.assertIn("0/4", setup)  # equal values win no pair
        self.assertIn("parent digest: 00ff", p.stdout)

    def test_wins_follow_each_metrics_direction(self):
        parent = self.checkout("parent", work=[100.0], setup=0.5)
        change = self.checkout("change", work=[90.0], setup=0.4)
        p = self.ab(parent, change, pairs="2")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        rows = {l.split()[0]: l for l in p.stdout.splitlines()[2:]}
        self.assertIn("0.900", rows["work_per_s"])
        self.assertIn("0/2", rows["work_per_s"])
        self.assertIn("0.800", rows["setup_s"])
        self.assertIn("2/2", rows["setup_s"])

    def test_failed_run_rejects(self):
        parent = self.checkout("parent", work=[100.0])
        change = self.checkout("change", work=[100.0], exit=3)
        p = self.ab(parent, change)
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("change: run.py exited 3", p.stderr)
        self.assertIn("build failed", p.stderr)

    def test_incorrect_run_rejects(self):
        parent = self.checkout("parent", work=[100.0], correct=False)
        change = self.checkout("change", work=[100.0])
        p = self.ab(parent, change)
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("correct: false", p.stderr)

    def test_failed_operations_reject(self):
        parent = self.checkout("parent", work=[100.0])
        change = self.checkout("change", work=[100.0], failed=2)
        p = self.ab(parent, change)
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("failed: 2", p.stderr)

    def test_moved_digest_rejects_unless_allowed(self):
        parent = self.checkout("parent", work=[100.0])
        change = self.checkout("change", work=[100.0], digest="beef")
        p = self.ab(parent, change)
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("differ", p.stderr)
        os.remove(self.log)
        p = self.ab(parent, change, "--allow-digest-change")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("change digest: beef", p.stdout)

    def test_allow_digest_change_still_rejects_incorrect_runs(self):
        parent = self.checkout("parent", work=[100.0])
        change = self.checkout("change", work=[100.0], digest="beef",
                               correct=False)
        p = self.ab(parent, change, "--allow-digest-change")
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)

    def test_repeated_workload_prints_one_table_each(self):
        # Each side's stub counts its runs across both workloads, so w1
        # reads entries 0-1 of its list and w2 entries 2-3 of its own.
        parent = self.checkout("parent", work=[100.0, 100.0],
                               work_w2=[0.0, 0.0, 50.0, 70.0])
        change = self.checkout("change", work=[200.0, 200.0],
                               work_w2=[0.0, 0.0, 40.0, 40.0],
                               digest_w2="0a0a")
        p = self.ab(parent, change, "--allow-digest-change", pairs="2",
                    workloads=("w1", "w2"))
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        with open(self.log, encoding="utf-8") as fh:
            runs = [(r.split()[0], r.split()[2])
                    for r in fh.read().splitlines()]
        self.assertEqual(runs, [("parent", "w1"), ("change", "w1"),
                                ("change", "w1"), ("parent", "w1"),
                                ("parent", "w2"), ("change", "w2"),
                                ("change", "w2"), ("parent", "w2")])
        tables = p.stdout.split("\n\n")
        self.assertEqual(len(tables), 2, p.stdout)
        self.assertTrue(tables[0].startswith("workload w1, seed 7"))
        self.assertTrue(tables[1].startswith("workload w2, seed 7"))
        work = [next(l for l in t.splitlines() if l.startswith("work_per_s"))
                for t in tables]
        self.assertIn("2.000", work[0])
        self.assertIn("2/2", work[0])
        self.assertIn("60 [55, 65]", work[1])
        self.assertIn("0/2", work[1])
        self.assertNotIn("change digest", tables[0])
        self.assertIn("change digest: 0a0a", tables[1])

    def test_moved_digest_in_a_later_workload_rejects(self):
        parent = self.checkout("parent", work=[100.0])
        change = self.checkout("change", work=[100.0], digest_w2="beef")
        p = self.ab(parent, change, pairs="2", workloads=("w1", "w2"))
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertTrue(p.stdout.startswith("workload w1"), p.stdout)
        self.assertIn("w2 change run 1 digests", p.stderr)

    def test_regression_past_the_bound_fails(self):
        # w1's change median 70 is 0.70x the parent's 100, past the 0.25
        # bound; w2 still runs and prints its table.
        bounds = {"work_per_s": 0.25, "setup_s": 0.25}
        parent = self.checkout("parent", work=[100.0, 100.0, 100.0, 100.0])
        change = self.checkout("change", bounds, work=[70.0, 70.0, 100.0,
                                                      100.0])
        p = self.ab(parent, change, pairs="2", workloads=("w1", "w2"))
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertEqual(len(p.stdout.split("\n\n")), 2, p.stdout)
        lines = [l for l in p.stderr.splitlines() if "regression" in l]
        self.assertEqual(len(lines), 1, p.stderr)
        self.assertIn("regression in w1: work_per_s median 70", lines[0])
        self.assertIn("0.700x; higher is better, bound 0.25", lines[0])

    def test_regression_within_the_bound_passes(self):
        bounds = {"work_per_s": 0.25, "setup_s": 0.25}
        parent = self.checkout("parent", work=[100.0])
        change = self.checkout("change", bounds, work=[76.0], setup=0.62)
        p = self.ab(parent, change, pairs="3")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertNotIn("regression", p.stderr)

    def test_lower_is_better_regression_fails(self):
        # setup_s 0.5 -> 0.65 is 1.3x, past a 0.25 bound in the lower
        # direction; the higher-is-better work_per_s improved.
        bounds = {"work_per_s": 0.25, "setup_s": 0.25}
        parent = self.checkout("parent", work=[100.0], setup=0.5)
        change = self.checkout("change", bounds, work=[150.0], setup=0.65)
        p = self.ab(parent, change, pairs="2")
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("regression in w1: setup_s median 0.65 against the "
                      "parent's 0.5 (1.300x; lower is better, bound 0.25)",
                      p.stderr)
        self.assertNotIn("work_per_s median", p.stderr)

    def test_bad_arguments_are_usage_errors(self):
        parent = self.checkout("parent", work=[100.0])
        p = self.ab(parent, os.path.join(self.tmp.name, "nowhere"))
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)
        change = self.checkout("change", work=[100.0])
        p = self.ab(parent, change, pairs="0")
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)
        p = self.ab(parent, change, workloads=("w1", "w1"))
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)


if __name__ == "__main__":
    unittest.main()
