#!/usr/bin/env python3
"""Repo-invariant linter for the DDPM reproduction.

Enforces the project-specific rules that neither the compiler nor
clang-tidy knows about (registered as the `repo_lint` ctest):

  1. pragma-once     every header under src/, tests/, bench/ carries
                     `#pragma once` (library headers are included across
                     module boundaries; a missing guard is an ODR bomb).
  2. rng-containment no `rand()`, `srand(`, `random_device`, or
                     `std::mt19937` outside src/netsim/rng.* — every
                     stochastic component must draw from the seeded
                     xoshiro generator or the paper's determinism story
                     (identical tables run-to-run) falls apart.
  3. float-compare   no `==` / `!=` against floating-point literals in
                     src/netsim/stats.* and src/netsim/quantile.* —
                     accumulated statistics must be compared with
                     tolerances (integer counters are exempt).
  4. header-io       no <iostream>/<cstdio>/printf in library headers
                     (src/**/*.hpp): I/O belongs to drivers, benches and
                     the trace module's .cpp files, and <iostream> in a
                     header drags static init into every TU.
  5. no-using-std    no `using namespace std;` anywhere.
  6. netsim-no-std-function
                     no `std::function` (or <functional> include) in
                     src/netsim/ headers — the event kernel's hot path is
                     allocation-free by design (InlineAction); a
                     std::function sneaking back in silently reintroduces
                     a heap allocation per scheduled event.
  7. src-no-console  no std::cout/std::cerr/std::clog or printf-family
                     writes in src/ library code. Libraries report through
                     return values, the telemetry registry, or the tracer;
                     stdout/stderr belong to drivers (examples/, bench/,
                     tools). The contract layer's abort path is the
                     canonical suppressed exception.
  8. stream-no-ingest
                     no <fstream>, stringstream parsing, or string->number
                     conversion (stoi/stoul/strtol/atoi/sscanf/from_chars)
                     in src/stream/. The sketch library consumes FlowRecord
                     structs only; all trace ingestion and CSV parsing live
                     in src/flow/, keeping the DDPM_HOT sketch paths free
                     of I/O and locale machinery.
  9. shard-state-statics
                     any file that declares DDPM_SHARD_STATE members (see
                     src/core/shard_annotations.hpp) is a sharded parallel
                     surface; a mutable static in such a file is exactly
                     the cross-shard channel the annotation contract
                     promises not to have, so every mutable static there
                     must itself carry DDPM_SHARD_STATE on its line (or a
                     reviewed allow). Const/constexpr statics are exempt.
 10. raw-number-parse
                     no string->number conversion (std::sto*, strto*,
                     atoi/atol/atof, sscanf, from_chars) in src/, examples/
                     or bench/ outside src/core/parse_number.hpp. Every
                     number read from text goes through core::parse_number
                     (strict: whole string, fits the type, no sign wrap, no
                     NaN/inf), and every flag through core::Cli, so one
                     parser decides what input is valid. perfbench/ is
                     frozen with BENCHMARK.json and is not scanned.
 11. required-docs   the tracked top-level documents (README.md,
                     ROADMAP.md, CHANGES.md, ISSUE.md, EXPERIMENTS.md,
                     DESIGN.md, PAPER.md) and docs/ARCHITECTURE.md exist
                     and are non-empty. Sessions hand work to each other
                     through these files; a deleted or emptied one breaks
                     the next session's context, so their presence is a
                     repo invariant, not a convention.
 12. series-documented
                     every literal series name src/ passes to a
                     registry's counter(/gauge(/histogram( or to a
                     family's counter_family(/histogram_family( has a row
                     in the series catalogue of docs/OBSERVABILITY.md, and
                     every catalogue row names a series src/ still
                     registers. Only `registry` receivers count:
                     `tracer->counter(...)` is a trace track, not a
                     series. A --metrics reader looks a name up there;
                     an undocumented or dead row misleads them.

A line may opt out of one rule with an inline suppression comment naming
it, e.g. `#include <cstdio>  // ddpm-lint: allow(header-io)`. Suppressions
are deliberate, reviewable exceptions — the contract layer's abort path is
the canonical one. A suppression that no longer matches a violation on its
line (the offending code was fixed or moved, the comment stayed behind) is
itself reported as `stale-suppression`: dead allow() comments hide future
regressions. The summary line counts the suppressions still in use so the
exception budget stays visible in CI logs.

Usage: tools/ddpm_lint.py [repo-root]   (exit 0 = clean, 1 = violations)
"""
from __future__ import annotations

import re
import sys
from pathlib import Path

Violation = tuple[Path, int, str, str]  # file, line, rule, message

ALLOW = re.compile(r"ddpm-lint:\s*allow\(([\w-]+)\)")

KNOWN_RULES = frozenset({
    "pragma-once", "rng-containment", "float-compare", "header-io",
    "no-using-std", "netsim-no-std-function", "src-no-console",
    "stream-no-ingest", "shard-state-statics", "raw-number-parse",
    "required-docs", "series-documented",
})

# Required top-level documents; see rule 11 in the docstring.
REQUIRED_DOCS = (
    "README.md", "ROADMAP.md", "CHANGES.md", "ISSUE.md", "EXPERIMENTS.md",
    "DESIGN.md", "PAPER.md", "docs/ARCHITECTURE.md",
)

# (path, line, rule) triples whose allow() comment actually silenced a
# violation during this run; filled by suppressed(), read by
# check_stale_suppressions.
_USED_SUPPRESSIONS: set[tuple[Path, int, str]] = set()


def suppressed(line: str, rule: str, path: Path | None = None,
               line_no: int = 0) -> bool:
    m = ALLOW.search(line)
    hit = m is not None and m.group(1) == rule
    if hit and path is not None:
        _USED_SUPPRESSIONS.add((path, line_no, rule))
    return hit


def strip_comments(line: str) -> str:
    """Best-effort removal of // comments (good enough for these rules)."""
    out = []
    i = 0
    in_string = False
    while i < len(line):
        ch = line[i]
        if in_string:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_string = False
        else:
            if ch == '"':
                in_string = True
            elif ch == "/" and line[i : i + 2] == "//":
                break
        out.append(ch)
        i += 1
    return "".join(out)


def iter_source(root: Path, dirs: tuple[str, ...], suffixes: tuple[str, ...]):
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in suffixes and path.is_file():
                yield path


def check_pragma_once(root: Path) -> list[Violation]:
    out = []
    for path in iter_source(root, ("src", "tests", "bench"), (".hpp", ".h")):
        text = path.read_text(encoding="utf-8", errors="replace")
        if "#pragma once" not in text:
            out.append((path, 1, "pragma-once", "header lacks #pragma once"))
    return out


RNG_PATTERN = re.compile(
    r"(?<![\w:])(rand|srand)\s*\(|std::random_device|std::mt19937"
)


def check_rng_containment(root: Path) -> list[Violation]:
    out = []
    for path in iter_source(root, ("src",), (".hpp", ".cpp")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("src/netsim/rng."):
            continue
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            code = strip_comments(line)
            if RNG_PATTERN.search(code) and not suppressed(
                line, "rng-containment", path, n
            ):
                out.append(
                    (path, n, "rng-containment",
                     "raw RNG outside src/netsim/rng.* breaks seeded determinism")
                )
    return out


FLOAT_LITERAL = r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?"
FLOAT_EQ = re.compile(
    r"[!=]=\s*(?:%s)|(?:%s)\s*[!=]=" % (FLOAT_LITERAL, FLOAT_LITERAL)
)


def check_float_compare(root: Path) -> list[Violation]:
    out = []
    targets = [
        p
        for p in iter_source(root, ("src",), (".hpp", ".cpp"))
        if p.name.startswith(("stats.", "quantile."))
    ]
    for path in targets:
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            code = strip_comments(line)
            if FLOAT_EQ.search(code) and not suppressed(
                line, "float-compare", path, n
            ):
                out.append(
                    (path, n, "float-compare",
                     "exact floating-point comparison; use a tolerance")
                )
    return out


HEADER_IO = re.compile(r'#\s*include\s*<(iostream|cstdio|stdio\.h|print)>')


def check_header_io(root: Path) -> list[Violation]:
    out = []
    for path in iter_source(root, ("src",), (".hpp",)):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            m = HEADER_IO.search(strip_comments(line))
            if m and not suppressed(line, "header-io", path, n):
                out.append(
                    (path, n, "header-io",
                     f"<{m.group(1)}> in a library header; include it in the .cpp")
                )
    return out


STD_FUNCTION = re.compile(r"std\s*::\s*function\s*<|#\s*include\s*<functional>")


def check_netsim_no_std_function(root: Path) -> list[Violation]:
    out = []
    for path in iter_source(root, ("src/netsim",), (".hpp", ".h")):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if STD_FUNCTION.search(strip_comments(line)) and not suppressed(
                line, "netsim-no-std-function", path, n
            ):
                out.append(
                    (path, n, "netsim-no-std-function",
                     "std::function in the event kernel allocates per event;"
                     " use netsim::InlineAction")
                )
    return out


CONSOLE_IO = re.compile(
    r"std\s*::\s*(cout|cerr|clog)\b"
    r"|(?:(?<![\w:])|std\s*::\s*)(printf|fprintf|puts|fputs)\s*\("
)


def check_src_no_console(root: Path) -> list[Violation]:
    out = []
    for path in iter_source(root, ("src",), (".hpp", ".cpp")):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            m = CONSOLE_IO.search(strip_comments(line))
            if m and not suppressed(line, "src-no-console", path, n):
                name = m.group(1) or m.group(2)
                out.append(
                    (path, n, "src-no-console",
                     f"{name} in library code; report through telemetry or"
                     " return values, print from drivers")
                )
    return out


def check_using_namespace_std(root: Path) -> list[Violation]:
    pat = re.compile(r"using\s+namespace\s+std\s*;")
    out = []
    for path in iter_source(root, ("src", "tests", "bench", "examples"),
                            (".hpp", ".cpp")):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if pat.search(strip_comments(line)) and not suppressed(
                line, "no-using-std", path, n
            ):
                out.append((path, n, "no-using-std", "using namespace std"))
    return out


# Any string->number conversion call; shared by stream-no-ingest and
# raw-number-parse.
NUMBER_PARSE = (
    r"(?:(?<![\w:])|std\s*::\s*)"
    r"(?:sto(?:i|l|ll|ul|ull|f|d|ld)|from_chars|"
    r"strto(?:l|ll|ul|ull|f|d|ld|imax|umax)|ato(?:i|l|ll|f)|sscanf)\s*\("
)

# Input-side machinery only: <sstream> stays legal because StreamReport
# serializes itself with an ostringstream — the rule guards ingestion, not
# output formatting.
STREAM_INGEST = re.compile(
    r"#\s*include\s*<(?:fstream|charconv|cstdio|stdio\.h)>"
    r"|\b(?:ifstream|fstream|istringstream)\b"
    r"|" + NUMBER_PARSE
)


def check_stream_no_ingest(root: Path) -> list[Violation]:
    out = []
    for path in iter_source(root, ("src/stream",), (".hpp", ".cpp")):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if STREAM_INGEST.search(strip_comments(line)) and not suppressed(
                line, "stream-no-ingest", path, n
            ):
                out.append(
                    (path, n, "stream-no-ingest",
                     "file/string ingestion in src/stream; parsing belongs"
                     " in src/flow, sketches consume FlowRecord structs")
                )
    return out


RAW_NUMBER_PARSE = re.compile(NUMBER_PARSE)


def check_raw_number_parse(root: Path) -> list[Violation]:
    out = []
    for path in iter_source(root, ("src", "examples", "bench"),
                            (".hpp", ".h", ".cpp")):
        if path.relative_to(root).as_posix() == "src/core/parse_number.hpp":
            continue
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if RAW_NUMBER_PARSE.search(strip_comments(line)) and not suppressed(
                line, "raw-number-parse", path, n
            ):
                out.append(
                    (path, n, "raw-number-parse",
                     "raw string->number conversion; use core::parse_number"
                     " (or core::Cli for flags)")
                )
    return out


# A `static` (optionally inline/thread_local) that is not const-qualified
# and not obviously a function declaration. Heuristic: a variable line has
# a `;` and either carries an initializer (`=`, `{`) or has no parameter
# list at all; `static T f();` and `static T f(args)` stay exempt.
MUTABLE_STATIC = re.compile(
    r"(?:^|[\s;{])(?:inline\s+|thread_local\s+)*static\s+"
    r"(?!const\b|constexpr\b|constinit\b|assert\s*\()"
)


def check_shard_state_statics(root: Path) -> list[Violation]:
    out = []
    for path in iter_source(root, ("src",), (".hpp", ".cpp")):
        text = path.read_text(encoding="utf-8")
        if "DDPM_SHARD_STATE" not in text:
            continue
        if path.name == "shard_annotations.hpp":
            continue  # the vocabulary header defines the macro itself
        for n, line in enumerate(text.splitlines(), 1):
            code = strip_comments(line)
            if not MUTABLE_STATIC.search(code):
                continue
            looks_like_variable = ";" in code and (
                "=" in code or "{" in code or "(" not in code)
            if not looks_like_variable:
                continue
            if "DDPM_SHARD_STATE" in code:
                continue  # annotated: the analyzer audits it interprocedurally
            if suppressed(line, "shard-state-statics", path, n):
                continue
            out.append(
                (path, n, "shard-state-statics",
                 "mutable static in a DDPM_SHARD_STATE file is a cross-shard"
                 " channel; annotate it DDPM_SHARD_STATE or remove it"))
    return out


def check_required_docs(root: Path) -> list[Violation]:
    out = []
    for name in REQUIRED_DOCS:
        path = root / name
        if not path.is_file():
            out.append((path, 1, "required-docs",
                        f"{name} is missing; sessions depend on it"))
        elif not path.read_text(encoding="utf-8", errors="replace").strip():
            out.append((path, 1, "required-docs",
                        f"{name} is empty; sessions depend on its content"))
    return out


# Rule 12: `registry->counter("name"`, `registry_.gauge("name"`, ... and
# the dense families, `registry.counter_family("name"` and
# `registry.histogram_family("name"`. The name may sit on the line after
# the call's open parenthesis.
REGISTRY_SERIES = re.compile(
    r"\bregistry_?\s*(?:->|\.)\s*(?:counter|gauge|histogram)(?:_family)?"
    r'\s*\(\s*"([^"]+)"')
SERIES_CATALOGUE = "docs/OBSERVABILITY.md"
CATALOGUE_HEADING = "## Series catalogue"
CATALOGUE_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def catalogue_rows(root: Path) -> dict[str, int] | None:
    """Series name -> line of its row in the catalogue; None if absent."""
    path = root / SERIES_CATALOGUE
    if not path.is_file():
        return None
    rows: dict[str, int] = {}
    inside = False
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(),
                             1):
        if line.startswith("## "):
            inside = line.strip() == CATALOGUE_HEADING
        elif inside and (m := CATALOGUE_ROW.match(line)):
            rows.setdefault(m.group(1), n)
    return rows


def check_series_documented(root: Path) -> list[Violation]:
    out = []
    registered: set[str] = set()
    sites = []
    for path in iter_source(root, ("src",), (".hpp", ".cpp")):
        lines = path.read_text(encoding="utf-8").splitlines()
        code = "\n".join(strip_comments(line) for line in lines)
        for m in REGISTRY_SERIES.finditer(code):
            n = code.count("\n", 0, m.start()) + 1
            registered.add(m.group(1))
            sites.append((path, n, lines[n - 1], m.group(1)))
    rows = catalogue_rows(root)
    if rows is None:
        return [(root / SERIES_CATALOGUE, 1, "series-documented",
                 f"{SERIES_CATALOGUE} is missing; src/ registers "
                 f"{len(registered)} series it should catalogue")
                ] if sites else []
    for path, n, line, name in sites:
        if name not in rows and not suppressed(line, "series-documented",
                                               path, n):
            out.append((path, n, "series-documented",
                        f"series '{name}' has no row in the "
                        f"{SERIES_CATALOGUE} series catalogue"))
    for name, n in sorted(rows.items(), key=lambda kv: kv[1]):
        if name not in registered:
            out.append((root / SERIES_CATALOGUE, n, "series-documented",
                        f"catalogue row '{name}' names a series src/ no "
                        "longer registers"))
    return out


def check_stale_suppressions(root: Path) -> list[Violation]:
    """allow() comments that silenced nothing this run.

    Must run AFTER every other check: _USED_SUPPRESSIONS is only complete
    once all rules have scanned their files. An allow() naming an unknown
    rule is reported too — it is a typo that silences nothing forever.
    """
    out = []
    for path in iter_source(root, ("src", "tests", "bench", "examples"),
                            (".hpp", ".h", ".cpp")):
        for n, line in enumerate(path.read_text(encoding="utf-8",
                                                errors="replace")
                                 .splitlines(), 1):
            for m in ALLOW.finditer(line):
                rule = m.group(1)
                if rule not in KNOWN_RULES:
                    out.append(
                        (path, n, "stale-suppression",
                         f"allow({rule}) names an unknown rule"))
                elif (path, n, rule) not in _USED_SUPPRESSIONS:
                    out.append(
                        (path, n, "stale-suppression",
                         f"allow({rule}) no longer matches a violation on "
                         "this line; remove it"))
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    if not (root / "src").is_dir():
        print(f"ddpm_lint: {root} does not look like the repo root", file=sys.stderr)
        return 2

    violations: list[Violation] = []
    for check in (
        check_pragma_once,
        check_rng_containment,
        check_float_compare,
        check_header_io,
        check_using_namespace_std,
        check_netsim_no_std_function,
        check_src_no_console,
        check_stream_no_ingest,
        check_shard_state_statics,
        check_raw_number_parse,
        check_required_docs,
        check_series_documented,
        check_stale_suppressions,  # must be last: audits the allow() comments
    ):
        violations.extend(check(root))

    for path, line, rule, message in violations:
        rel = path.relative_to(root).as_posix()
        print(f"{rel}:{line}: [{rule}] {message}")

    by_rule: dict[str, int] = {}
    for _, _, rule in _USED_SUPPRESSIONS:
        by_rule[rule] = by_rule.get(rule, 0) + 1
    detail = ", ".join(f"{r}={n}" for r, n in sorted(by_rule.items()))
    summary = (f"{len(_USED_SUPPRESSIONS)} suppression(s) in use"
               + (f" ({detail})" if detail else ""))

    if violations:
        print(f"ddpm_lint: {len(violations)} violation(s), {summary}",
              file=sys.stderr)
        return 1
    print(f"ddpm_lint: clean, {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
