#!/usr/bin/env python3
"""AST-level determinism & hot-path analyzer for the DDPM reproduction.

Registered as the `static_analyze` ctest. The paper's headline claim — a
single marked packet identifies the true source — is only reproducible
because result tables are byte-identical run-to-run and across --jobs
values. This tool enforces the invariants that keep that true but that the
regex linter (tools/ddpm_lint.py) cannot express, because they need types,
scopes, and a call graph:

  ordered-iteration        no range-for / iterator walk over
                           std::unordered_map/set in any function reachable
                           from snapshot/merge/report/JSON-emit paths
                           (iteration order leaks into output).
  no-wall-clock            no system_clock/steady_clock/time()/clock()/
                           getenv outside the allowlist — simulation time
                           is the only clock a result may depend on.
  capture-lifetime         event-schedule lambdas (schedule_in/schedule_at/
                           InlineAction) must not capture by reference:
                           parked actions outlive the scheduling frame.
  virtual-dtor             polymorphic bases (declare a new virtual member)
                           must have a virtual destructor AND explicitly
                           suppress or protect copy/move (C.67 — slicing
                           through a base handle corrupts results quietly).
  narrowing-in-marking     implicit integral narrowing into 16-bit
                           marking-field arithmetic outside
                           src/packet/marking_field.* — truncation is the
                           semantics only inside the codec.
  no-shared-mutable-static non-const statics in src/ (namespace scope,
                           function-local, or static data members): the
                           parallel sweep runner assumes replications share
                           nothing.
  torus-wrap               raw `%` / `/` arithmetic on a line that reads a
                           Coord-typed local or parameter, outside the
                           audited ring helpers (src/topology/coord.*,
                           src/topology/cartesian.*, or a function named
                           ring_delta). Hand-rolled wrap arithmetic that
                           disagrees with ring_shortest_delta by even one
                           breaks the V = D - S telescoping the identifier
                           depends on.
  det-taint                interprocedural: nondeterminism sources
                           (unordered-container iteration, pointer-keyed
                           containers, thread identity/count, address
                           reinterpretation, DDPM_DET_SOURCE calls) must
                           not be reachable from a determinism sink — a
                           result-path-named function or anything marked
                           DDPM_DET_SINK (src/core/shard_annotations.hpp).
                           Generalizes ordered-iteration to sinks the
                           naming convention cannot see.
  shard-isolation          DDPM_SHARD_STATE members may be touched only by
                           their owning class, and on a sink path only
                           inside the closure of a DDPM_SHARD_MERGE
                           function — whose own closure must be
                           det-taint-clean.
  rng-stream-discipline    RNG construction inside the call-graph closure
                           of a ParallelRunner dispatch site must derive
                           from an explicit seed/jump_stream()/long_jump()
                           argument, never a bare literal or default seed
                           shared across workers.
  tick-domain              additive/comparison arithmetic mixing
                           netsim::SimTime (tick) and core::WindowIndex
                           (window ordinal) operands; explicit
                           SimTime(...)/WindowIndex(...) construction is
                           the sanctioned conversion. Active only in files
                           that use the WindowIndex vocabulary.
  stale-suppression        an `allow(rule)` comment on a line that no
                           longer violates that rule must be removed.

Frontend
--------
A dependency-free *textual* frontend extracts the facts: a comment/string-
stripping lexer plus a scope-tracking parser that recovers classes, member/
param/local declarations, function extents, and a name-based call graph.
It is deliberately conservative (unresolvable range expressions are not
flagged). Layout pins need no compiler here: DDPM_HOT_LAYOUT expands to a
static_assert, so every build checks them against the real record layout.

Suppressions & ratchet
----------------------
A line opts out of one rule with `// ddpm-analyze: allow(rule)` (reason
after a colon). Pre-existing debt lives in tools/ddpm_analyze_baseline.json
keyed by line-number-insensitive fingerprints (rule + file + context +
normalized line text + occurrence); baselined findings are reported but do
not fail, new ones do. `--update-baseline` rewrites the file; stale
baseline entries and stale allow() comments fail the run so debt only
ratchets down.

Scoped runs & caching
---------------------
`--only RULE[,RULE...]` restricts the report (and the pass/fail gate) to
the named rules: findings for other rules are dropped, and allow()
comments / baseline entries for unselected rules are neither consumed nor
reported stale. Unknown rule names are a usage error. `--facts-cache PATH`
persists the parsed-facts model (functions, classes, rule sites) keyed by
a digest of the analyzed file contents + tool version, so
repeated scoped runs skip the parse entirely when nothing changed.

Usage:
  tools/ddpm_analyze.py [--baseline tools/ddpm_analyze_baseline.json]
                        [--json OUT] [--only RULE[,RULE...]]
                        [--facts-cache PATH] [--update-baseline]
                        [--self-test DIR] [ROOT]

Exit codes: 0 clean, 1 findings/self-test failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path


# Bump whenever extraction or the rule passes change meaning: the facts
# cache (--facts-cache) keys on it, so stale pickles self-invalidate.
TOOL_VERSION = "8"

RULES = (
    "ordered-iteration",
    "no-wall-clock",
    "capture-lifetime",
    "virtual-dtor",
    "narrowing-in-marking",
    "no-shared-mutable-static",
    "torus-wrap",
    "hot-no-alloc",
    "hot-no-virtual",
    "hot-no-lock",
    "hot-no-throw-io",
    "hot-no-div",
    "layout-certified",
    "det-taint",
    "shard-isolation",
    "rng-stream-discipline",
    "tick-domain",
)
META_RULES = ("stale-suppression",)

# Functions whose (simple) name marks the start of a result path: anything
# they reach transitively is output-order-sensitive. `entropy`/`observe`/
# `identify` are result paths in the paper's sense: they produce the values
# Tables 1-3 are built from.
RESULT_PATH_SEED = re.compile(
    r"(?:^|_)(to_json|to_csv|to_dot|snapshot|merge|report|summary|summarize|"
    r"emit|write|digest|entropy|ranked|identify|observe)(?:_|$)|"
    r"^(to_string)$",
    re.IGNORECASE,
)

UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")

WALL_CLOCK_IDENTS = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "localtime", "gmtime", "strftime", "getenv",
}
# Bare `time`/`clock` only count as the C library calls when not accessed
# as a member (`.time()`) or qualified by a project namespace.
WALL_CLOCK_CALLS = {"time", "clock"}

SCHEDULE_CALLEES = {"schedule", "schedule_in", "schedule_at", "InlineAction"}

ALLOW_RE = re.compile(r"ddpm-analyze:\s*allow\(([\w-]+(?:\s*,\s*[\w-]+)*)\)")
EXPECT_RE = re.compile(r"ddpm-analyze:\s*expect\(([\w-]+(?:\s*,\s*[\w-]+)*)\)")

CXX_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "static_cast", "dynamic_cast",
    "reinterpret_cast", "const_cast", "new", "delete", "throw", "noexcept",
    "assert", "defined", "alignas", "typeid", "co_await", "co_return",
}

U16_TYPES = re.compile(r"^(?:std\s*::\s*)?uint16_t$|^unsigned\s+short(?:\s+int)?$")
# Binary operators whose int-promoted result can exceed 16 bits. Bitwise
# &/|/^ of two narrow operands cannot, so they are deliberately absent.
ARITH_OPS = {"+", "-", "*", "<<"}
EXPLICIT_NARROW_RE = re.compile(
    r"static_cast\s*<\s*(?:std\s*::\s*)?uint16_t\s*>|"
    r"(?:std\s*::\s*)?uint16_t\s*\(|narrow"
)

# torus-wrap: a declared type naming Coord, and a binary % or / (an
# operand-shaped token on both sides, ruling out comments already blanked
# and pointer declarations).
COORD_TYPE_RE = re.compile(r"\bCoord\b")
TORUS_WRAP_OP_RE = re.compile(r"[\w\)\]]\s*[%/]\s*[\w\(]")

# -- hot-path ruleset (src/core/hot_path.hpp) ------------------------------
# A function whose definition head carries DDPM_HOT is a hot-path root;
# the rules apply to it and to its call-graph closure (simple-name edges,
# same resolution as result_path_functions — a deliberate overapproximation:
# a virtual callee pulls every same-named implementation in). A call
# `x(...)` through a local, parameter or member `x` whose declared type (or
# the alias it names) records an `operator()` also reaches that operator,
# by its qualified name. A definition head carrying DDPM_COLD (slab growth
# past a reservation) is left out of the closure, and so is what only it
# calls.
HOT_FN_MACRO = "DDPM_HOT"
COLD_FN_MACRO = "DDPM_COLD"
HOT_STATE_RE = re.compile(r"\b(?:struct|class)\s+DDPM_HOT_STATE\s+([A-Za-z_]\w*)")
HOT_LAYOUT_RE = re.compile(
    r"\bDDPM_HOT_LAYOUT\s*\(\s*([A-Za-z_]\w*)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")
HOT_ALLOC_RES = (
    # Placement `::new (ptr) T(...)` constructs in storage that already
    # exists; `new (std::nothrow) T` still allocates.
    (re.compile(r"\bnew\b(?!\s*\((?!\s*(?:std\s*::\s*)?nothrow\s*\)))"),
     "operator new"),
    (re.compile(r"\bmake_(?:unique|shared)\s*<"), "make_unique/make_shared"),
    (re.compile(r"\bstd\s*::\s*function\s*<"), "std::function construction"),
    (re.compile(r"\ballocator\b[^;]*(?:\.|::)\s*allocate\s*\("),
     "allocator allocate"),
)
# Container growth: receiver.method() where the receiver's declared type is
# growth-prone and no `receiver.reserve(...)` appears anywhere in the same
# file (the reserve-dominates heuristic: a reserved container's steady-state
# pushes stay inside the slab).
HOT_GROWTH_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(push_back|emplace_back|emplace_front|"
    r"push_front|emplace|insert|append|resize|assign)\s*\(")
HOT_GROWTH_TYPES = re.compile(r"\b(?:vector|deque|string|basic_string|RingBuffer)\b")
HOT_RESERVE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*reserve\s*\(")
HOT_MEMBER_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
HOT_LOCK_RES = (
    (re.compile(r"\b(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
                r"lock_guard|unique_lock|scoped_lock|shared_lock|"
                r"condition_variable|MutexLock)\b"), "lock/condvar"),
    (re.compile(r"(?:\.|->)\s*(?:lock|unlock|try_lock)\s*\("),
     "explicit lock call"),
    (re.compile(r"\b(?:fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
                r"compare_exchange_weak|compare_exchange_strong|notify_one|"
                r"notify_all)\s*\("), "atomic RMW / condvar notify"),
    (re.compile(r"\batomic\s*<"), "atomic declaration"),
)
HOT_THROW_IO_RES = (
    (re.compile(r"\bthrow\b"), "throw expression"),
    (re.compile(r"\b(?:cout|cerr|clog|endl)\b"), "iostream console I/O"),
    (re.compile(r"\b(?:printf|fprintf|sprintf|snprintf|vprintf|puts|fputs|"
                r"putchar)\s*\("), "printf-family I/O"),
    (re.compile(r"\b(?:stringstream|ostringstream|istringstream|ofstream|"
                r"ifstream|fstream)\b"), "stream construction"),
)
# Integer division/modulo with a non-constant divisor is a 20-40 cycle
# partially-serializing op; a constant divisor strength-reduces to
# shifts/multiplies at -O2. The right operand is exempt when it is a
# numeric literal, sizeof, or a constant-cased identifier (kArity,
# BUFFER_DEPTH) — optionally behind `Qualifier::` scopes. Everything else
# (locals, members, parenthesized expressions) is flagged.
HOT_DIV_QUALIFIER_RE = re.compile(r"^(?:[A-Za-z_]\w*\s*::\s*)+")
HOT_DIV_CONST_RHS_RE = re.compile(r"\d|sizeof\b|k[A-Z]\w*|[A-Z][A-Z0-9_]+\b")
HOT_DIV_TOKEN_RE = re.compile(r"[A-Za-z_][\w:]*|\S")


def hot_div_matches(lt: str):
    """Yields (operator, rhs-token) for each `/`, `%`, `/=`, `%=` on the
    (comment/string-blanked) line whose right operand is not provably a
    compile-time constant."""
    for m in re.finditer(r"[/%]", lt):
        i = m.start()
        if lt[:i].rstrip().endswith("operator"):
            continue  # operator/ / operator% declaration, not a division
        j = i + 1
        op = m.group(0)
        if j < len(lt) and lt[j] == "=":
            op += "="
            j += 1
        rhs = HOT_DIV_QUALIFIER_RE.sub("", lt[j:].lstrip())
        if not rhs or HOT_DIV_CONST_RHS_RE.match(rhs):
            continue
        tok = HOT_DIV_TOKEN_RE.match(rhs)
        yield op, tok.group(0) if tok else rhs[:1]


# -- determinism-taint / shard-safety ruleset ------------------------------
# (src/core/shard_annotations.hpp). Annotations are lexical tokens exactly
# like DDPM_HOT: the textual parser harvests them from definition heads and
# `;`-terminated declarations.
DET_SOURCE_MACRO = "DDPM_DET_SOURCE"
DET_SINK_MACRO = "DDPM_DET_SINK"
SHARD_MERGE_MACRO = "DDPM_SHARD_MERGE"
SHARD_STATE_MACRO = "DDPM_SHARD_STATE"

# Lexical nondeterminism sources: environment reads whose value depends on
# scheduling/thread count/address layout rather than seeded simulation
# state. Unordered iteration and DDPM_DET_SOURCE calls are handled via
# sites/call scanning, not this table.
DET_SOURCE_LEX = (
    (re.compile(r"\bhardware_concurrency\s*\("),
     "std::thread::hardware_concurrency()"),
    (re.compile(r"\bthis_thread\s*::\s*get_id\s*\(|\bthread\s*::\s*id\b"),
     "thread identity"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t\b"),
     "pointer value reinterpreted as integer"),
)
# Associative container keyed on a pointer type: iteration/sort order is
# the allocator's address layout. Only the first template argument (the
# key) matters; pointer-valued mapped types are fine.
DET_POINTER_KEY_RE = re.compile(
    r"\b(?:unordered_map|unordered_set|map|set|multimap|multiset)\s*"
    r"<[^;{}>,]*\*")

# rng-stream-discipline: worker closures are seeded from ParallelRunner
# dispatch sites; inside them every Rng must be constructed from an
# explicit stream derivation, never a bare literal or the default seed.
RNG_DISPATCH_RE = re.compile(r"\bParallelRunner\b|\bfor_each_index\s*\(")
RNG_DECL_RE = re.compile(
    r"\b(?:netsim\s*::\s*)?Rng\s+([A-Za-z_]\w*)\s*(?:\(([^;]*)\)|\{([^;]*)\})\s*;")
RNG_DEFAULT_DECL_RE = re.compile(r"\b(?:netsim\s*::\s*)?Rng\s+([A-Za-z_]\w*)\s*;")
RNG_OK_ARG_RE = re.compile(
    r"\bseed\b|seed\s*\(|_seed\b|\bjump_stream\b|\blong_jump\b|\bstream\b",
    re.IGNORECASE)

# tick-domain: declared-type vocabulary. A line mixing a tick-typed and a
# window-typed operand across an additive/comparison operator is flagged;
# explicit construction (SimTime(...) / WindowIndex(...)) and the scaling
# ops * and / are the sanctioned conversions.
TICK_DOMAIN_TYPES = (
    (re.compile(r"\bWindowIndex\b"), "window"),
    (re.compile(r"\bSimTime\b"), "tick"),
)
TICK_MIX_OP_RE = re.compile(r"[\w\)\]]\s*(?:\+=?|-=?|<=?|>=?|==|!=)\s*[\w\(]")
TICK_CONVERT_RE = re.compile(r"\b(?:SimTime|WindowIndex)\s*\(")


# --------------------------------------------------------------------------
# Fact model
# --------------------------------------------------------------------------

@dataclass
class FunctionInfo:
    qname: str           # e.g. "ddpm::telemetry::Registry::snapshot"
    name: str            # simple name: "snapshot"
    cls: str             # enclosing class simple name, "" for free functions
    file: str
    line: int
    calls: set = field(default_factory=set)  # simple callee names
    hot: bool = False    # definition head carries DDPM_HOT
    cold: bool = False   # definition head carries DDPM_COLD
    owner: str = ""      # enclosing class qualified name: the member-table key


@dataclass
class ClassInfo:
    name: str
    file: str
    line: int
    has_bases: bool = False             # derived classes are out of scope
    declares_virtual: bool = False      # a new virtual member (not the dtor)
    has_virtual_dtor: bool = False
    dtor_declared: bool = False
    dtor_access: str = "public"
    copy_declared: bool = False         # copy ctor or copy-assign declared
    copy_access: str = "public"         # access of the declared copy op
    copy_deleted: bool = False


@dataclass
class Fact:
    """A site a rule may turn into a finding."""
    rule: str
    file: str
    line: int
    context: str         # enclosing function qname or class name
    detail: str


@dataclass
class Finding:
    rule: str
    file: str            # repo-relative posix path
    line: int
    context: str
    message: str
    fingerprint: str = ""
    baselined: bool = False
    suppressed: bool = False


@dataclass
class Facts:
    functions: dict = field(default_factory=dict)     # qname -> FunctionInfo
    classes: dict = field(default_factory=dict)       # name -> ClassInfo
    sites: list = field(default_factory=list)         # [Fact]

    def merge(self, other: "Facts") -> None:
        for q, fn in other.functions.items():
            if q in self.functions:
                self.functions[q].calls |= fn.calls
                self.functions[q].hot = self.functions[q].hot or fn.hot
                self.functions[q].cold = self.functions[q].cold or fn.cold
            else:
                self.functions[q] = fn
        for n, ci in other.classes.items():
            self.classes.setdefault(n, ci)
        seen = {(f.rule, f.file, f.line, f.detail) for f in self.sites}
        for f in other.sites:
            if (f.rule, f.file, f.line, f.detail) not in seen:
                self.sites.append(f)


# --------------------------------------------------------------------------
# Textual frontend: lexer
# --------------------------------------------------------------------------

def blank_comments_and_strings(text: str) -> str:
    """Returns text with comments and string/char literals replaced by
    spaces, preserving length and newlines (so offsets/lines line up)."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == "R" and nxt == '"':
            j = i + 2
            while j < n and text[j] not in "(":
                j += 1
            delim = text[i + 2:j]
            end = text.find(")" + delim + '"', j)
            end = n if end == -1 else end + len(delim) + 2
            for k in range(i, min(end, n)):
                if text[k] != "\n":
                    out[k] = " "
            i = end
        elif c in "\"'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*|::|->\*?|<<=?|>>=?|<=|>=|==|!=|&&|\|\||\+\+|--|[+\-*/%^&|~!<>=]=?"
    r"|\d[\w.']*|\.\.\.|[\[\](){};:,.?#\\]"
)


@dataclass
class Tok:
    s: str
    pos: int
    line: int


def tokenize(clean: str):
    line_starts = [0]
    for m in re.finditer("\n", clean):
        line_starts.append(m.end())
    toks = []
    import bisect
    for m in TOKEN_RE.finditer(clean):
        ln = bisect.bisect_right(line_starts, m.start())
        toks.append(Tok(m.group(0), m.start(), ln))
    return toks


# --------------------------------------------------------------------------
# Textual frontend: scope-tracking parser
# --------------------------------------------------------------------------

@dataclass
class _Scope:
    kind: str            # "namespace" | "class" | "function" | "block" | "enum"
    name: str = ""
    qname: str = ""      # functions and classes: namespaces + classes + name
    access: str = "public"
    hot: bool = False    # function head carried DDPM_HOT
    start_line: int = 0  # function head line (extent recording)


def strip_attributes(words: list) -> list:
    """`words` without `alignas(...)` and `[[...]]` attribute groups, so a
    member declared `alignas(64) [[no_unique_address]] T x;` reads as
    `T x`."""
    out: list = []
    k = 0
    while k < len(words):
        if words[k] == "alignas" and k + 1 < len(words) and words[k + 1] == "(":
            depth = 0
            for k in range(k + 1, len(words)):
                depth += {"(": 1, ")": -1}.get(words[k], 0)
                if depth == 0:
                    break
        elif words[k:k + 2] == ["[", "["]:
            end = next((j for j in range(k + 2, len(words) - 1)
                        if words[j:j + 2] == ["]", "]"]), len(words) - 1)
            k = end + 1
        else:
            out.append(words[k])
        k += 1
    return out


def type_class_name(words: list) -> str:
    """The simple class name a declared type names: the last identifier
    before any template argument list, qualifiers and cv/ref dropped
    (`const ns::Action&` -> `Action`, `std::vector<int>` -> `vector`)."""
    if "<" in words:
        words = words[:words.index("<")]
    names = [w for w in words if re.match(r"[A-Za-z_]\w*$", w)
             and w not in ("const", "volatile", "typename", "struct",
                           "class", "mutable", "static", "constexpr",
                           "inline", "auto")]
    return names[-1] if names else ""


class TextualUnit:
    """Facts extracted from one source file by the textual frontend."""

    def __init__(self, path: Path, rel: str, text: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.clean = blank_comments_and_strings(text)
        self.lines = text.splitlines()
        self.clean_lines = self.clean.splitlines()
        self.toks = tokenize(self.clean)
        self._wrap_lines: set = set()
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        # qualified class (namespaces + enclosing classes) -> name -> type
        self.members: dict[str, dict[str, str]] = {}
        self.aliases: dict[str, str] = {}   # `using X = ...Y<...>` -> "Y"
        # fn qname -> {(callee name, reached through `.`/`->`)}: the
        # candidates for a call through a callable object.
        self.var_calls: dict[str, set] = {}
        self.locals_u16: set = set()
        self.sites: list[Fact] = []
        # (qname, start_line, end_line) per function *definition* — one entry
        # per body even when a qname is defined twice (#if variants), so a
        # hot-line scan never swallows the region between two definitions.
        self.fn_extents: list[tuple] = []
        # Shard/determinism annotation harvest (shard_annotations.hpp):
        # simple function names carrying each macro, and annotated data
        # members as (owner class, member name, line).
        self.det_sources: set = set()
        self.det_sinks: set = set()
        self.shard_merges: set = set()
        self.shard_states: list[tuple] = []
        self._parse()
        # Hot-path state/layout declarations are recognized lexically on the
        # blanked text (the macros expand to attributes/static_asserts under
        # clang, to nothing under gcc — neither expansion is visible here).
        self.hot_states: list[tuple] = []    # (class name, line)
        self.hot_layouts: set = set()        # class names with a layout pin
        for n, cl in enumerate(self.clean_lines, 1):
            for m in HOT_STATE_RE.finditer(cl):
                self.hot_states.append((m.group(1), n))
            for m in HOT_LAYOUT_RE.finditer(cl):
                self.hot_layouts.add(m.group(1))

    # -- helpers ----------------------------------------------------------

    def _stmt_text(self, toks) -> str:
        return " ".join(t.s for t in toks)

    def _match_forward(self, i: int, open_s: str, close_s: str) -> int:
        """Index of the token closing the bracket opened at toks[i]."""
        depth = 0
        t = self.toks
        while i < len(t):
            if t[i].s == open_s:
                depth += 1
            elif t[i].s == close_s:
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return len(t) - 1

    # -- main parse -------------------------------------------------------

    def _parse(self) -> None:
        toks = self.toks
        scopes: list[_Scope] = []
        ns_stack: list[str] = []
        stmt_start = 0          # token index where current statement began
        i = 0

        def cur_fn() -> str:
            for sc in reversed(scopes):
                if sc.kind == "function":
                    return sc.qname
            return ""

        def cur_class() -> str:
            for sc in reversed(scopes):
                if sc.kind == "class":
                    return sc.qname
                if sc.kind == "function":
                    return ""
            return ""

        def at_class_body() -> bool:
            return bool(scopes) and scopes[-1].kind == "class"

        def at_fn_body() -> bool:
            return any(sc.kind == "function" for sc in scopes)

        while i < len(toks):
            t = toks[i]
            s = t.s

            if s == "#":  # skip preprocessor line
                ln = t.line
                while i < len(toks) and toks[i].line == ln:
                    i += 1
                stmt_start = i
                continue

            if s in ("public", "private", "protected") and i + 1 < len(toks) \
                    and toks[i + 1].s == ":" and at_class_body():
                scopes[-1].access = s
                i += 2
                stmt_start = i
                continue

            if s == "{":
                scopes.append(self._classify_brace(stmt_start, i, scopes, ns_stack))
                if scopes[-1].kind == "namespace":
                    ns_stack.append(scopes[-1].name)
                i += 1
                stmt_start = i
                continue

            if s == "}":
                if scopes:
                    closing = scopes.pop()
                    if closing.kind == "namespace" and ns_stack:
                        ns_stack.pop()
                    if closing.kind == "function" and closing.qname:
                        self.fn_extents.append(
                            (closing.qname, closing.start_line or t.line,
                             t.line))
                i += 1
                stmt_start = i
                continue

            if s == ";":
                self._handle_statement(toks[stmt_start:i], scopes, ns_stack)
                i += 1
                stmt_start = i
                continue

            # range-for detection: for ( ... : ... )
            if s == "for" and i + 1 < len(toks) and toks[i + 1].s == "(":
                close = self._match_forward(i + 1, "(", ")")
                inner = toks[i + 2:close]
                self._handle_for(t.line, inner, cur_fn(), cur_class())
                # fall through: body brace handled normally; skip the header
                # so `;` inside classic for() doesn't end the statement.
                i = close + 1
                stmt_start = i
                continue

            if at_fn_body():
                self._scan_in_function(i, cur_fn(), cur_class())

            # wall-clock idents can appear anywhere (incl. member init lists)
            if s in WALL_CLOCK_IDENTS and not self._qualified_by_project(i):
                self.sites.append(Fact("no-wall-clock", self.rel, t.line,
                                       cur_fn() or cur_class(), s))
            if s in WALL_CLOCK_CALLS and i + 1 < len(toks) \
                    and toks[i + 1].s == "(" \
                    and (i == 0 or toks[i - 1].s not in (".", "->", "::", "~")) \
                    and not self._is_decl_name(i):
                self.sites.append(Fact("no-wall-clock", self.rel, t.line,
                                       cur_fn() or cur_class(), s + "()"))

            i += 1

    def _qualified_by_project(self, i: int) -> bool:
        """True when `chrono`-style ident is qualified by a non-std scope
        (e.g. our own `sim::steady_clock` shim in fixtures is still flagged;
        only `foo.system_clock` member access is excused)."""
        return i > 0 and self.toks[i - 1].s in (".", "->")

    def _is_decl_name(self, i: int) -> bool:
        """`SimTime time(...)` — a declaration/definition named `time`."""
        if i == 0:
            return False
        prev = self.toks[i - 1].s
        return bool(re.match(r"[A-Za-z_]", prev)) or prev in ("&", "*", ">")

    # -- brace classification --------------------------------------------

    def _classify_brace(self, stmt_start: int, brace_i: int,
                        scopes: list, ns_stack: list) -> _Scope:
        toks = self.toks
        head = toks[stmt_start:brace_i]
        words = [t.s for t in head]

        if "namespace" in words:
            k = words.index("namespace")
            name = "::".join(w for w in words[k + 1:] if re.match(r"[A-Za-z_]", w))
            return _Scope("namespace", name or "<anon>")

        if "enum" in words:
            return _Scope("enum")

        for kw in ("class", "struct"):
            if kw in words:
                k = words.index(kw)
                rest = words[k + 1:]
                # The class name, with the classes an out-of-line
                # definition (`class Outer::Inner {`) qualifies it by.
                path: list = []
                for m, w in enumerate(rest):
                    if re.match(r"[A-Za-z_]\w*$", w) and \
                            w not in ("final", "alignas", "DDPM_HOT_STATE"):
                        path.append(w)
                        if rest[m + 1:m + 2] != ["::"]:
                            break
                    elif w != "::" or not path:
                        if path:
                            break
                # `struct X { ... } var;` and template specializations all
                # land here; a trailing `(` would mean function-try etc.
                if path:
                    name = path[-1]
                    ci = self.classes.setdefault(
                        name, ClassInfo(name, self.rel,
                                        head[0].line if head else toks[brace_i].line))
                    ci.has_bases = ci.has_bases or ":" in rest
                    outer = next((sc.qname for sc in reversed(scopes)
                                  if sc.kind == "class"), None)
                    prefix = [outer] if outer else \
                        [n for n in ns_stack if n != "<anon>"]
                    qname = "::".join(prefix + path)
                    self.members.setdefault(qname, {})
                    default_access = "private" if kw == "class" else "public"
                    return _Scope("class", name, qname=qname,
                                  access=default_access)
                return _Scope("block")

        # function definition?  ... name ( params ) [quals] {
        if any(sc.kind == "function" for sc in scopes):
            return _Scope("block")  # nested brace inside a function
        # Walk back over the qualifiers after the parameter list; a
        # `noexcept(expr)` or trailing `decltype(expr)` group is a qualifier
        # too, not the parameter list.
        close_paren = open_paren = None
        j = len(head) - 1
        while j >= 0:
            if head[j].s == ")":
                k = self._match_back(head, j)
                if k is not None and k > 0 and \
                        head[k - 1].s in ("noexcept", "decltype"):
                    j = k - 2
                    continue
                close_paren, open_paren = j, k
                break
            if head[j].s in ("const", "noexcept", "override", "final", "try",
                             "&", "&&", "->") or re.match(r"[\w:<>,\s]", head[j].s):
                j -= 1
                continue
            break
        if open_paren:
            name_i, op_name = self._operator_head(head, open_paren)
            before = head[name_i].s
            if before not in CXX_KEYWORDS and re.match(r"[A-Za-z_~]", before):
                qname, simple, cls, owner = self._function_name(
                    head, name_i, scopes, ns_stack, op_name)
                if qname:
                    # Inline-bodied members never reach _handle_statement
                    # (no terminating `;`), so record the special-member
                    # flags from the head here.
                    if scopes and scopes[-1].kind == "class":
                        self._class_member_flags(
                            words, scopes[-1].name, scopes[-1].access)
                    fn = FunctionInfo(qname, simple, cls, self.rel,
                                      head[open_paren - 1].line, owner=owner)
                    fn_rec = self.functions.setdefault(qname, fn)
                    if HOT_FN_MACRO in words:
                        fn_rec.hot = True
                    if COLD_FN_MACRO in words:
                        fn_rec.cold = True
                    self._harvest_annotations(words, simple=simple, cls=cls)
                    self._parse_params(head[open_paren + 1:close_paren], qname)
                    sc = _Scope("function", simple)
                    sc.qname = qname
                    sc.hot = HOT_FN_MACRO in words
                    sc.start_line = head[0].line if head else 0
                    return sc
        return _Scope("block")

    @staticmethod
    def _match_back(head, close_i: int):
        """Index of the `(` that closes with head[close_i], or None."""
        depth = 0
        for j in range(close_i, -1, -1):
            if head[j].s == ")":
                depth += 1
            elif head[j].s == "(":
                depth -= 1
                if depth == 0:
                    return j
        return None

    @staticmethod
    def _operator_head(head, open_paren: int):
        """The index of the function's name token and its name when that
        is not the token before the parameters: `operator()(`,
        `operator==(` and the conversion `operator bool(` are named
        `operator()`, `operator==` and `operator bool`, from the index of
        the `operator` keyword."""
        for k in range(open_paren - 1, max(open_paren - 5, -1), -1):
            if head[k].s == "operator":
                rest = [t.s for t in head[k + 1:open_paren]]
                if rest and re.match(r"[A-Za-z_]", rest[0]):
                    return k, "operator " + " ".join(rest)  # conversion
                return k, "operator" + "".join(rest)
        return open_paren - 1, None

    def _function_name(self, head, name_i, scopes, ns_stack, name=None):
        parts = []
        j = name_i
        while j >= 0:
            w = head[j].s
            if re.match(r"[A-Za-z_~]\w*$", w):
                parts.append(w)
                if j >= 2 and head[j - 1].s == "::":
                    j -= 2
                    # skip template args on the qualifier: Foo<T>::bar
                    if j >= 0 and head[j].s == ">":
                        depth = 0
                        while j >= 0:
                            if head[j].s == ">":
                                depth += 1
                            elif head[j].s == "<":
                                depth -= 1
                                if depth == 0:
                                    j -= 1
                                    break
                            j -= 1
                    continue
                break
            break
        if not parts:
            return "", "", "", ""
        parts.reverse()
        if name:
            parts[-1] = name
        simple = parts[-1]
        cls = parts[-2] if len(parts) > 1 else ""
        encl = next((sc for sc in reversed(scopes) if sc.kind == "class"), None)
        if encl is not None:
            # Inline member: the enclosing class's qualified name leads.
            if not cls:
                cls = encl.name
            q = "::".join([encl.qname] + parts)
        else:
            q = "::".join([n for n in ns_stack if n != "<anon>"] + parts)
        owner = q.rsplit("::", 1)[0] if cls else ""
        return q, simple, cls, owner

    def _parse_params(self, ptoks, fn_qname: str) -> None:
        if not ptoks:
            return
        depth = 0
        groups, cur = [], []
        for t in ptoks:
            if t.s in ("<", "(", "["):
                depth += 1
            elif t.s in (">", ")", "]"):
                depth -= 1
            if t.s == "," and depth == 0:
                groups.append(cur)
                cur = []
            else:
                cur.append(t)
        groups.append(cur)
        for g in groups:
            names = [t.s for t in g if re.match(r"[A-Za-z_]\w*$", t.s)]
            if len(names) < 2:
                continue
            name = names[-1]
            type_str = " ".join(t.s for t in g[:-1])
            self._record_local(fn_qname, name, type_str)

    def _record_local(self, fn_qname: str, name: str, type_str: str) -> None:
        key = (fn_qname, name)
        if UNORDERED_RE.search(type_str):
            self._local_types.setdefault(key, type_str)
        elif U16_TYPES.match(type_str.replace(" ", "")) or "uint16_t" in type_str:
            self.locals_u16.add(key)
            self._local_types.setdefault(key, type_str)
        else:
            self._local_types.setdefault(key, type_str)

    _local_types: dict

    def _harvest_annotations(self, words, simple=None, cls="") -> None:
        """Records DDPM_DET_SOURCE/DDPM_DET_SINK/DDPM_SHARD_MERGE from a
        function head (inline definition, name already resolved) or from a
        `;`-terminated declaration (name = identifier before the first
        '('). Annotating the declaration in the header is enough: the
        taint pass matches functions by (class, simple name) — an empty
        class binds every same-named function, matching the call-graph
        overapproximation."""
        for macro, store in ((DET_SOURCE_MACRO, self.det_sources),
                             (DET_SINK_MACRO, self.det_sinks),
                             (SHARD_MERGE_MACRO, self.shard_merges)):
            if macro not in words:
                continue
            name = simple
            if name is None and "(" in words:
                k = words.index("(")
                if k > 0 and re.match(r"[A-Za-z_]\w*$", words[k - 1]):
                    name = words[k - 1]
            if name:
                store.add((cls, name))

    def _class_member_flags(self, words, cls: str, access: str) -> None:
        """Updates special-member facts for `cls` from a member head/decl.

        Called for both `;`-terminated declarations (_handle_statement) and
        inline-bodied definitions (_classify_brace), so virtual methods with
        bodies are seen too.
        """
        ci = self.classes[cls]
        if "virtual" in words:
            if "~" in words:
                ci.has_virtual_dtor = True
                ci.dtor_declared = True
                ci.dtor_access = access
            else:
                ci.declares_virtual = True
        elif "~" in words:
            ci.dtor_declared = True
            ci.dtor_access = access
        if "operator" in words:
            k = words.index("operator")
            if k + 1 < len(words) and words[k + 1] == "=" and cls in words[:k]:
                ci.copy_declared = True
                ci.copy_access = access
                ci.copy_deleted = ci.copy_deleted or "delete" in words
        # copy ctor:  Cls ( const Cls & ... )
        if words[:1] == [cls] and len(words) > 3 and words[1] == "(":
            inner = words[2:]
            if cls in inner and "&" in inner and "&&" not in inner:
                ci.copy_declared = True
                ci.copy_access = access
                ci.copy_deleted = ci.copy_deleted or "delete" in words

    # -- statements -------------------------------------------------------

    def _handle_statement(self, stoks, scopes, ns_stack) -> None:
        if not stoks:
            return
        words = [t.s for t in stoks]
        line = stoks[0].line
        in_class = bool(scopes) and scopes[-1].kind == "class"
        in_fn = any(sc.kind == "function" for sc in scopes)
        at_ns = not in_class and not in_fn and not any(
            sc.kind in ("enum",) for sc in scopes)

        # -- class member declarations & special members ------------------
        if (in_class or at_ns) and words[0] == "using" and "=" in words:
            self._record_alias(words)
        if in_class:
            cls = scopes[-1].name
            cls_key = scopes[-1].qname
            access = scopes[-1].access
            self._class_member_flags(words, cls, access)
            self._harvest_annotations(words, cls=cls)
            words = strip_attributes(words)
            # member variable? no parens -> record type
            if words and "(" not in words and "operator" not in words and \
                    words[0] not in ("using", "friend", "typedef", "template",
                                     "enum", "class", "struct"):
                names = [w for w in words if re.match(r"[A-Za-z_]\w*$", w)]
                if len(names) >= 2:
                    eq = words.index("=") if "=" in words else len(words)
                    decl_words = words[:eq]
                    decl_names = [w for w in decl_words
                                  if re.match(r"[A-Za-z_]\w*$", w)
                                  and w not in ("const", "static", "mutable",
                                                "constexpr", "inline", "std")]
                    if decl_names:
                        var = decl_names[-1]
                        self.members.setdefault(cls_key, {})[var] = " ".join(decl_words)
                        if SHARD_STATE_MACRO in decl_words:
                            self.shard_states.append((cls, var, line))
            # static data member (shared mutable state)
            self._check_static(stoks, words, line, context=cls)
            return

        # -- namespace-scope statements -----------------------------------
        if at_ns:
            self._harvest_annotations(words)
            self._check_static(stoks, words, line, context="::".join(ns_stack))
            return

        # -- inside a function --------------------------------------------
        if in_fn:
            fn = next(sc.qname for sc in reversed(scopes) if sc.kind == "function")
            self._check_static(stoks, words, line, context=fn)
            self._maybe_local_decl(stoks, words, fn, line)

    def _record_alias(self, words) -> None:
        """`using X = ns::Y<...>;` records X -> Y, the simple name of the
        aliased class (template arguments dropped)."""
        name = words[1]
        target = type_class_name(words[words.index("=") + 1:])
        if re.match(r"[A-Za-z_]\w*$", name) and target and target != name:
            self.aliases[name] = target

    def _check_static(self, stoks, words, line, context) -> None:
        if "static" not in words:
            return
        k = words.index("static")
        rest = words[k + 1:]
        if not rest:
            return
        if "(" in rest:            # function declaration/definition
            return
        if "const" in rest[:4] or "constexpr" in rest[:4] or \
                words[max(0, k - 2):k].count("constexpr"):
            return
        if "using" in words[:k] or "typedef" in words[:k]:
            return
        self.sites.append(Fact("no-shared-mutable-static", self.rel, line,
                               context, " ".join(words[:6])))

    def _maybe_local_decl(self, stoks, words, fn, line) -> None:
        # TYPE NAME [= ...] ;   (no leading keyword, contains no '(' before NAME)
        if not words or words[0] in CXX_KEYWORDS or words[0] in (
                "return", "delete", "goto", "break", "continue", "case"):
            return
        eq = words.index("=") if "=" in words else None
        decl = words[:eq] if eq is not None else words
        if "(" in decl:
            return
        names = [w for w in decl if re.match(r"[A-Za-z_]\w*$", w)
                 and w not in ("const", "auto", "std", "static", "constexpr")]
        if len(names) < 2:
            return
        var = names[-1]
        type_str = " ".join(decl)
        self._record_local(fn, var, type_str)
        # narrowing-in-marking: uint16 decl initialised from arithmetic.
        # (Plain re-assignments are left to -Wconversion.)
        if eq is not None and ("uint16_t" in decl):
            self._check_narrowing(words[eq + 1:], fn, line)

    @staticmethod
    def _rhs_has_arith(words) -> bool:
        """True when the expression holds a *binary* widening operator —
        an operand-shaped token on both sides (rules out unary &/*/-)."""
        operand_end = re.compile(r"[\w)\]]$")
        operand_start = re.compile(r"^[\w(]")
        for k, w in enumerate(words):
            if w in ARITH_OPS and 0 < k < len(words) - 1 \
                    and operand_end.search(words[k - 1]) \
                    and operand_start.search(words[k + 1]):
                return True
        return False

    def _check_narrowing(self, rhs_words, fn: str, line: int) -> None:
        rhs = " ".join(rhs_words)
        if self._rhs_has_arith(rhs_words) and not EXPLICIT_NARROW_RE.search(rhs):
            self.sites.append(Fact("narrowing-in-marking", self.rel, line,
                                   fn, rhs[:60]))

    # -- per-token scanning inside function bodies ------------------------

    def _scan_in_function(self, i: int, fn_qname: str, cls: str) -> None:
        toks = self.toks
        t = toks[i]
        # call edges: ident (   — not a keyword, not a declaration
        if re.match(r"[A-Za-z_]\w*$", t.s) and t.s not in CXX_KEYWORDS \
                and i + 1 < len(toks) and toks[i + 1].s == "(":
            if fn_qname in self.functions:
                self.functions[fn_qname].calls.add(t.s)
                prev = toks[i - 1].s if i > 0 else ""
                if prev != "::":
                    self.var_calls.setdefault(fn_qname, set()).add(
                        (t.s, prev in (".", "->")))
            if t.s in SCHEDULE_CALLEES:
                self._check_schedule_call(i, fn_qname)
        # torus-wrap: this token reads a Coord-typed local/param and the
        # (comment-blanked) line carries a binary % or /. One finding per
        # line; exemptions for the ring helpers live in evaluate().
        if t.line not in self._wrap_lines and re.match(r"[A-Za-z_]\w*$", t.s):
            ty = self._local_types.get((fn_qname, t.s))
            if ty and COORD_TYPE_RE.search(ty):
                lt = self.clean_lines[t.line - 1] \
                    if 0 < t.line <= len(self.clean_lines) else ""
                if TORUS_WRAP_OP_RE.search(lt):
                    self._wrap_lines.add(t.line)
                    self.sites.append(Fact(
                        "torus-wrap", self.rel, t.line, fn_qname,
                        re.sub(r"\s+", " ", lt.strip())[:60]))

    def _check_schedule_call(self, i: int, fn_qname: str) -> None:
        toks = self.toks
        close = self._match_forward(i + 1, "(", ")")
        j = i + 1
        while j < close:
            if toks[j].s == "[" and toks[j - 1].s in ("(", ",", "=", "return"):
                k = self._match_forward(j, "[", "]")
                cap = [toks[m].s for m in range(j + 1, k)]
                if "&" in cap or "&&" in cap:
                    self.sites.append(Fact(
                        "capture-lifetime", self.rel, toks[j].line, fn_qname,
                        "[" + " ".join(cap) + "]"))
                j = k
            j += 1

    # -- range-for --------------------------------------------------------

    def _handle_for(self, line: int, inner, fn_qname: str, cls: str) -> None:
        colon = None
        depth = 0
        for k, t in enumerate(inner):
            if t.s in ("<", "(", "[", "{"):
                depth += 1
            elif t.s in (">", ")", "]", "}"):
                depth -= 1
            elif t.s == ";":
                # classic for: detect iterator walk `x.begin()`
                self._handle_iter_walk(line, inner, fn_qname, cls)
                return
            elif t.s == ":" and depth == 0:
                if k > 0 and inner[k - 1].s == ":":
                    continue
                if k + 1 < len(inner) and inner[k + 1].s == ":":
                    continue
                colon = k
                break
        if colon is None:
            return
        range_toks = inner[colon + 1:]
        rtype = self._resolve_expr_type(range_toks, fn_qname, cls)
        if rtype and UNORDERED_RE.search(rtype):
            self.sites.append(Fact(
                "ordered-iteration", self.rel, line, fn_qname or cls,
                "range-for over " + " ".join(t.s for t in range_toks)[:50]))

    def _handle_iter_walk(self, line, inner, fn_qname, cls) -> None:
        words = [t.s for t in inner]
        for k in range(len(words) - 3):
            if words[k + 1] == "." and words[k + 2] == "begin" and words[k + 3] == "(":
                rtype = self._resolve_name_type(words[k], fn_qname, cls)
                if rtype and UNORDERED_RE.search(rtype):
                    self.sites.append(Fact(
                        "ordered-iteration", self.rel, line, fn_qname or cls,
                        "iterator walk over " + words[k]))

    def _resolve_expr_type(self, rtoks, fn_qname, cls):
        words = [t.s for t in rtoks if t.s not in ("*", "&")]
        if not words:
            return None
        if words[-1] == ")":  # function call result: not resolved
            return None
        # strip leading this-> / obj. qualifiers, keep last identifier
        name = words[-1]
        if not re.match(r"[A-Za-z_]\w*$", name):
            return None
        explicit_member = len(words) >= 2 and words[-2] in (".", "->")
        return self._resolve_name_type(name, fn_qname, cls,
                                       member_only=explicit_member and
                                       (len(words) < 3 or words[-3] == "this"))

    def _resolve_name_type(self, name, fn_qname, cls, member_only=False):
        if not member_only and (fn_qname, name) in self._local_types:
            return self._local_types[(fn_qname, name)]
        if cls and name in self.members.get(cls, {}):
            return self.members[cls][name]
        return None


def build_textual_units(files: list, root: Path) -> list:
    """Parses every file into a TextualUnit with the global class->member
    table already resolved."""
    units = []
    for path in files:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        rel = path.relative_to(root).as_posix()
        TextualUnit._local_types = {}
        unit = TextualUnit.__new__(TextualUnit)
        unit._local_types = {}
        unit.__init__(path, rel, text)
        units.append(unit)
    # classes/members are declared in headers but used in .cpp files:
    # build a global class->members table, then re-resolve.
    members: dict[str, dict[str, str]] = {}
    for u in units:
        for c, mm in u.members.items():
            members.setdefault(c, {}).update(mm)
    for u in units:
        u.members = {c: dict(members.get(c, {})) for c in members}
        # re-run range-for resolution with global member knowledge
        u.sites = [f for f in u.sites if f.rule != "ordered-iteration"]
        u2 = _ReResolve(u)
        u.sites.extend(u2.sites)
    return units


class _ReResolve:
    """Second pass: redo range-for/iter-walk resolution once the global
    class->member table is known (headers parsed after the .cpp)."""

    def __init__(self, unit: TextualUnit):
        self.sites: list[Fact] = []
        self.u = unit
        toks = unit.toks
        scopes: list[_Scope] = []
        ns_stack: list[str] = []
        stmt_start = 0
        i = 0
        while i < len(toks):
            s = toks[i].s
            if s == "#":
                ln = toks[i].line
                while i < len(toks) and toks[i].line == ln:
                    i += 1
                stmt_start = i
                continue
            if s == "{":
                scopes.append(unit._classify_brace(stmt_start, i, scopes, ns_stack))
                if scopes[-1].kind == "namespace":
                    ns_stack.append(scopes[-1].name)
                i += 1
                stmt_start = i
                continue
            if s == "}":
                if scopes:
                    c = scopes.pop()
                    if c.kind == "namespace" and ns_stack:
                        ns_stack.pop()
                i += 1
                stmt_start = i
                continue
            if s == ";":
                i += 1
                stmt_start = i
                continue
            if s == "for" and i + 1 < len(toks) and toks[i + 1].s == "(":
                close = unit._match_forward(i + 1, "(", ")")
                fn = next((sc.qname for sc in reversed(scopes)
                           if sc.kind == "function"), "")
                cls = next((sc.qname for sc in reversed(scopes)
                            if sc.kind == "class"), "")
                if not cls and fn:
                    cls = self.u.functions[fn].owner if fn in self.u.functions else ""
                saved = unit.sites
                unit.sites = []
                unit._handle_for(toks[i].line, toks[i + 2:close], fn, cls)
                self.sites.extend(unit.sites)
                unit.sites = saved
                i = close + 1
                stmt_start = i
                continue
            i += 1


# --------------------------------------------------------------------------
# Rule engine
# --------------------------------------------------------------------------

MESSAGES = {
    "ordered-iteration": "iteration over an unordered container on a result "
                         "path — order leaks into output; sort first or use "
                         "std::map/set",
    "no-wall-clock": "wall-clock/environment read — results may only depend "
                     "on simulation time",
    "capture-lifetime": "scheduled action captures by reference — the parked "
                        "action outlives this stack frame; capture by value "
                        "(this + copies)",
    "virtual-dtor": "polymorphic base without compliant special members",
    "narrowing-in-marking": "implicit narrowing into 16-bit marking-field "
                            "arithmetic — make the truncation explicit with "
                            "static_cast<std::uint16_t> (semantics live in "
                            "packet/marking_field.*)",
    "no-shared-mutable-static": "non-const static — replications must share "
                                "nothing (parallel sweep runner)",
    "torus-wrap": "raw % or / on a Coord-typed value — wrap arithmetic "
                  "belongs in the audited ring helpers "
                  "(ring_shortest_delta / ring_direction / Torus::ring_delta);"
                  " a hand-rolled "
                  "wrap that is off by one breaks V = D - S telescoping",
    "stale-suppression": "allow() comment on a line that no longer violates "
                         "the rule — remove it",
    "hot-no-alloc": "heap allocation reachable from a DDPM_HOT function — "
                    "hoist into pooled/pre-reserved state built at "
                    "construction",
    "hot-no-virtual": "virtual dispatch reachable from a DDPM_HOT function — "
                      "precompute through a table or devirtualize via a "
                      "concrete member",
    "hot-no-lock": "lock/atomic-RMW reachable from a DDPM_HOT function — "
                   "the simulator hot loop is single-threaded by design; "
                   "synchronization there is pure overhead",
    "hot-no-throw-io": "throw or console I/O reachable from a DDPM_HOT "
                       "function — report through counters/return values",
    "hot-no-div": "integer division/modulo with a non-constant divisor "
                  "reachable from a DDPM_HOT function — a hardware divide "
                  "partially serializes the pipeline; use a power-of-two "
                  "mask/shift, hoist the divisor to a constant, or "
                  "precompute a table",
    "layout-certified": "DDPM_HOT_STATE layout not certified — every "
                        "hot-state record needs a DDPM_HOT_LAYOUT(size, "
                        "align) pin so growth shows up in review",
    "det-taint": "nondeterminism reaches a determinism sink — thread/"
                 "environment/address-order values must not flow into "
                 "snapshot/merge/report/JSON/digest emitters; sort, seed, "
                 "or hoist out of the sink closure",
    "shard-isolation": "DDPM_SHARD_STATE crossed outside its sanctioned "
                       "path — shard state belongs to its owner, and on "
                       "sink paths may only flow through a "
                       "DDPM_SHARD_MERGE closure",
    "rng-stream-discipline": "worker-closure RNG not derived from an "
                             "explicit stream — seed from jump_stream()/"
                             "long_jump() or a per-task seed argument, "
                             "never a literal or the default seed shared "
                             "across workers",
    "tick-domain": "arithmetic mixes sim-tick and window-index integer "
                   "domains — make the conversion explicit with "
                   "SimTime(...)/WindowIndex(...)",
}

NARROWING_EXEMPT = re.compile(r"src/packet/marking_field\.")
WALLCLOCK_ALLOW = re.compile(r"$^")  # no allowlisted files in src/ today
# The ring helpers themselves are the one audited home for wrap arithmetic:
# the coord.hpp free functions, the CartesianTopology id<->coord codec, and
# any function named ring_delta (Torus::ring_delta and its fixtures).
TORUS_WRAP_EXEMPT_FILE = re.compile(r"src/topology/(coord|cartesian)\.")
TORUS_WRAP_EXEMPT_FN = ("ring_delta", "ring_shortest_delta")


def result_path_functions(functions: dict) -> set:
    """Forward closure (by simple name) of seed functions."""
    by_name: dict[str, list] = {}
    for fi in functions.values():
        by_name.setdefault(fi.name, []).append(fi)
    seeds = [fi for fi in functions.values() if RESULT_PATH_SEED.search(fi.name)]
    reach = set()
    work = list(seeds)
    while work:
        fi = work.pop()
        if fi.qname in reach:
            continue
        reach.add(fi.qname)
        for callee in fi.calls:
            for target in by_name.get(callee, []):
                if target.qname not in reach:
                    work.append(target)
    return reach


# --------------------------------------------------------------------------
# Hot-path pass
# --------------------------------------------------------------------------

def merged_functions(units: list) -> dict:
    """qname -> FunctionInfo across all units (declaration in the header,
    definition in the .cpp, calls unioned)."""
    fns: dict[str, FunctionInfo] = {}
    for u in units:
        for q, fi in u.functions.items():
            if q in fns:
                fns[q].calls |= fi.calls
                fns[q].hot = fns[q].hot or fi.hot
                fns[q].cold = fns[q].cold or fi.cold
            else:
                fns[q] = FunctionInfo(fi.qname, fi.name, fi.cls, fi.file,
                                      fi.line, set(fi.calls), fi.hot, fi.cold,
                                      fi.owner)
    link_operator_calls(units, fns)
    return fns


def link_operator_calls(units: list, fns: dict) -> None:
    """Adds a qualified edge `T::operator()` to each function that calls
    `x(...)` where `x` is a local or parameter of that function or a member
    of its class, and `x`'s type names class T, or an alias of it, that
    defines `operator()`. After `.`/`->` the receiver's class is not
    resolved, so every class's member named `x` is a candidate: the same
    overapproximation as a virtual call. No call site spells `operator()`,
    so without these edges no call operator (InlineAction's, run by
    EventWheel::fire for every event) is ever reached."""
    call_ops: dict[str, list] = {}
    for fi in fns.values():
        if fi.name == "operator()" and fi.cls:
            call_ops.setdefault(fi.cls, []).append(fi.qname)
    if not call_ops:
        return
    aliases: dict[str, str] = {}
    for u in units:
        aliases.update(u.aliases)
    for u in units:
        for qname, callees in u.var_calls.items():
            fi = fns.get(qname)
            if fi is None:
                continue
            for name, via_member in callees:
                if via_member:
                    types = {mm[name] for mm in u.members.values()
                             if name in mm}
                else:
                    ty = u._local_types.get((qname, name)) or \
                        u.members.get(fi.owner, {}).get(name)
                    types = {ty} if ty else set()
                for ty in types:
                    words = ty.split()
                    if words[-1:] == [name]:  # a member's decl names itself
                        words = words[:-1]
                    cls = type_class_name(words)
                    for _ in range(8):  # alias chains; bounded against cycles
                        if cls not in aliases:
                            break
                        cls = aliases[cls]
                    fi.calls.update(call_ops.get(cls, ()))


def forward_closure(fns: dict, seeds) -> set:
    """Qnames reachable (by simple-name call edges) from the seed
    FunctionInfos. Same resolution as result_path_functions: a call
    through a virtual pulls in every same-named definition. That
    overapproximation is deliberate — the caller cannot prove at the call
    site which override runs, so every candidate implementation inherits
    the obligation."""
    by_name: dict[str, list] = {}
    for fi in fns.values():
        by_name.setdefault(fi.name, []).append(fi)
    reach: set = set()
    work = list(seeds)
    while work:
        fi = work.pop()
        if fi.qname in reach:
            continue
        reach.add(fi.qname)
        for callee in fi.calls:
            targets = [fns[callee]] if "::" in callee and callee in fns \
                else by_name.get(callee, [])
            for target in targets:
                if target.qname not in reach:
                    work.append(target)
    return reach


def hot_closure(units: list) -> set:
    """Qnames reachable from DDPM_HOT roots without entering a DDPM_COLD
    function."""
    fns = {q: fi for q, fi in merged_functions(units).items() if not fi.cold}
    return forward_closure(fns, [fi for fi in fns.values() if fi.hot])


def hot_pass_sites(units: list) -> list:
    """Hot-path rule sites: lexical scans over the line extents of every
    function in the DDPM_HOT closure, plus the check that every
    DDPM_HOT_STATE record has a DDPM_HOT_LAYOUT pin (whose numbers the
    pin's static_assert checks on every build)."""
    reach = hot_closure(units)
    virt: set = set()
    for u in units:
        for cname, ci_rec in u.classes.items():
            if ci_rec.declares_virtual:
                virt.add(cname)
    sites: list[Fact] = []
    for u in units:
        # reserve-dominates: a receiver reserved anywhere in this file is
        # treated as slab-backed for its growth calls.
        reserved = {m.group(1) for m in HOT_RESERVE_RE.finditer(u.clean)}
        flagged: set = set()

        def emit(rule, line, ctx, detail):
            if (rule, line) in flagged:
                return
            flagged.add((rule, line))
            sites.append(Fact(rule, u.rel, line, ctx, detail))

        def recv_type(recv: str, qname: str):
            t = u._local_types.get((qname, recv))
            if t:
                return t
            fi = u.functions.get(qname)
            cls = fi.owner if fi else ""
            if cls and recv in u.members.get(cls, {}):
                return u.members[cls][recv]
            hits = {u.members[c][recv] for c in u.members
                    if recv in u.members[c]}
            if len(hits) == 1:
                return next(iter(hits))
            return None  # unknown or ambiguous: stay silent

        for qname, start, end in u.fn_extents:
            if qname not in reach:
                continue
            for n in range(start, min(end, len(u.clean_lines)) + 1):
                lt = u.clean_lines[n - 1]
                for rx, what in HOT_ALLOC_RES:
                    if rx.search(lt):
                        emit("hot-no-alloc", n, qname, what)
                for m in HOT_GROWTH_RE.finditer(lt):
                    recv, meth = m.group(1), m.group(2)
                    if recv in reserved:
                        continue
                    t = recv_type(recv, qname)
                    if t and HOT_GROWTH_TYPES.search(t):
                        emit("hot-no-alloc", n, qname,
                             f"{recv}.{meth}() may grow without a "
                             "dominating reserve()")
                for m in HOT_MEMBER_CALL_RE.finditer(lt):
                    recv, meth = m.group(1), m.group(2)
                    t = recv_type(recv, qname)
                    if not t:
                        continue
                    hit = next((w for w in re.findall(r"[A-Za-z_]\w*", t)
                                if w in virt), None)
                    if hit:
                        emit("hot-no-virtual", n, qname,
                             f"{recv}->{meth}() dispatches through "
                             f"polymorphic '{hit}'")
                for rx, what in HOT_LOCK_RES:
                    if rx.search(lt):
                        emit("hot-no-lock", n, qname, what)
                for rx, what in HOT_THROW_IO_RES:
                    if rx.search(lt):
                        emit("hot-no-throw-io", n, qname, what)
                for op, tok in hot_div_matches(lt):
                    emit("hot-no-div", n, qname,
                         f"'{op}' with non-constant right operand '{tok}'")
    for u in units:
        for name, line in u.hot_states:
            if name not in u.hot_layouts:
                sites.append(Fact(
                    "layout-certified", u.rel, line, name,
                    f"DDPM_HOT_STATE '{name}' has no DDPM_HOT_LAYOUT pin "
                    "in this file"))
    return sites


# --------------------------------------------------------------------------
# Interprocedural dataflow pass: det-taint / shard-isolation /
# rng-stream-discipline / tick-domain
# --------------------------------------------------------------------------

def dataflow_pass_sites(units: list) -> list:
    """Taint-engine rule sites over the whole-program call graph.

    Closures are forward reachability over simple-name call edges from
    three seed sets: determinism sinks
    (result-path-named functions plus DDPM_DET_SINK annotations), shard
    merge points (DDPM_SHARD_MERGE), and worker dispatchers (any function
    whose body touches ParallelRunner / for_each_index)."""
    fns = merged_functions(units)

    det_source_pairs: set = set()    # (cls-or-empty, simple name)
    det_sink_pairs: set = set()
    merge_pairs: set = set()
    shard_states: list = []          # (owner class, member, rel, line)
    for u in units:
        det_source_pairs |= u.det_sources
        det_sink_pairs |= u.det_sinks
        merge_pairs |= u.shard_merges
        for cls, var, line in u.shard_states:
            shard_states.append((cls, var, u.rel, line))

    def annotated(fi, pairs) -> bool:
        return any(fi.name == n and (c == "" or fi.cls == c)
                   for c, n in pairs)

    seed_named = [fi for fi in fns.values()
                  if RESULT_PATH_SEED.search(fi.name)]
    seed_reach = forward_closure(fns, seed_named)
    sink_reach = forward_closure(
        fns, seed_named + [fi for fi in fns.values()
                           if annotated(fi, det_sink_pairs)])
    merge_roots = [fi for fi in fns.values() if annotated(fi, merge_pairs)]
    merge_reach = forward_closure(fns, merge_roots)

    # DDPM_DET_SOURCE call sites are detected lexically (name + optional
    # template args + '('), so `pool.map<R>(...)` counts even though the
    # tokenizer records no call edge for templated calls.
    src_call_res = {
        name: re.compile(r"\b" + re.escape(name) + r"\s*(?:<[^;(){}]*>)?\s*\(")
        for name in {n for _c, n in det_source_pairs}
    }

    allow_map: dict = {}             # (rel, line) -> set(rules), raw text
    for u in units:
        for n, raw in enumerate(u.lines, 1):
            m = ALLOW_RE.search(raw)
            if m:
                allow_map[(u.rel, n)] = {r.strip()
                                         for r in m.group(1).split(",")}

    sites: list[Fact] = []
    flagged: set = set()

    def emit(rule, rel, line, ctx, detail):
        if (rule, rel, line) in flagged:
            return
        flagged.add((rule, rel, line))
        sites.append(Fact(rule, rel, line, ctx, detail))

    # ---- per-function nondeterminism-source inventory --------------------
    # Collected everywhere (not just sink closures): the merge-cleanliness
    # check needs them for closures that are not sinks. A site allowed via
    # `allow(det-taint)` still reaches det-taint itself (the normal
    # suppression accounting marks it) but no longer poisons a merge.
    source_sites: dict[str, list] = {}   # qname -> [(rel, line, what, allowed)]
    for u in units:
        for qname, start, end in u.fn_extents:
            fi = fns.get(qname)
            own = fi.name if fi else ""
            for n in range(start, min(end, len(u.clean_lines)) + 1):
                lt = u.clean_lines[n - 1]
                hits = []
                for rx, what in DET_SOURCE_LEX:
                    if rx.search(lt):
                        hits.append(what)
                if DET_POINTER_KEY_RE.search(lt):
                    hits.append("container keyed on a pointer value")
                for name, rx in src_call_res.items():
                    # the annotated function's own head/recursion is not a
                    # call into nondeterminism
                    if name != own and rx.search(lt):
                        hits.append(f"call to DDPM_DET_SOURCE '{name}'")
                allowed = "det-taint" in allow_map.get((u.rel, n), ())
                for what in hits:
                    source_sites.setdefault(qname, []).append(
                        (u.rel, n, what, allowed))

    # ---- det-taint: sources inside the determinism-sink closure ----------
    for qname in sorted(source_sites):
        if qname not in sink_reach:
            continue
        for rel, n, what, _allowed in source_sites[qname]:
            emit("det-taint", rel, n, qname,
                 f"{what} on a determinism-sink path")

    # Unordered-container walks only the annotation vocabulary can see:
    # inside the DDPM_DET_SINK closure but NOT on a result-path-named
    # closure (those remain ordered-iteration findings — no double report).
    for u in units:
        for f in u.sites:
            if f.rule != "ordered-iteration":
                continue
            ctx = f.context
            if ctx in sink_reach and ctx not in seed_reach \
                    and not RESULT_PATH_SEED.search(ctx.split("::")[-1]):
                emit("det-taint", u.rel, f.line, ctx,
                     f"{f.detail} — reachable from a DDPM_DET_SINK")

    # ---- shard-isolation -------------------------------------------------
    owners: dict[str, set] = {}
    state_res: dict = {}
    for cls, var, _srel, _sline in shard_states:
        owners.setdefault(var, set()).add(cls)
        state_res.setdefault(var, re.compile(r"\b" + re.escape(var) + r"\b"))
    if shard_states:
        for u in units:
            for qname, start, end in u.fn_extents:
                fi = fns.get(qname)
                fcls = fi.cls if fi else ""
                for n in range(start, min(end, len(u.clean_lines)) + 1):
                    lt = u.clean_lines[n - 1]
                    for var, rx in state_res.items():
                        if not rx.search(lt):
                            continue
                        if fcls not in owners[var]:
                            emit("shard-isolation", u.rel, n, qname,
                                 f"'{var}' (DDPM_SHARD_STATE of "
                                 f"{'/'.join(sorted(owners[var]))}) touched "
                                 "outside the owning class")
                        elif qname in sink_reach \
                                and not (fi and annotated(fi, merge_pairs)) \
                                and qname not in merge_reach:
                            emit("shard-isolation", u.rel, n, qname,
                                 f"sink-path access to shard state '{var}' "
                                 "outside a DDPM_SHARD_MERGE closure")

    # DDPM_SHARD_MERGE functions must be det-taint-clean across their
    # whole closure (an allowed source no longer poisons them; an
    # unordered walk does).
    for root_fi in sorted(merge_roots, key=lambda fi: fi.qname):
        sub = forward_closure(fns, [root_fi])
        dirty = None
        for q in sorted(sub):
            for _rel, _n, what, allowed in source_sites.get(q, []):
                if not allowed:
                    dirty = (q, what)
                    break
            if dirty:
                break
        if dirty is None:
            for u in units:
                for f in u.sites:
                    if f.rule == "ordered-iteration" and f.context in sub \
                            and not ({"ordered-iteration", "det-taint"} &
                                     allow_map.get((f.file, f.line), set())):
                        dirty = (f.context, f.detail)
                        break
                if dirty:
                    break
        if dirty is not None:
            emit("shard-isolation", root_fi.file, root_fi.line,
                 root_fi.qname,
                 f"DDPM_SHARD_MERGE '{root_fi.name}' reaches a "
                 f"nondeterminism source ({dirty[1]} in "
                 f"{dirty[0].split('::')[-1]})")

    # ---- rng-stream-discipline -------------------------------------------
    extent_text: dict[str, str] = {}
    for u in units:
        for qname, start, end in u.fn_extents:
            seg = "\n".join(u.clean_lines[start - 1:min(end,
                                                        len(u.clean_lines))])
            extent_text[qname] = extent_text.get(qname, "") + "\n" + seg
    dispatchers = [fns[q] for q, txt in sorted(extent_text.items())
                   if q in fns and RNG_DISPATCH_RE.search(txt)]
    worker_reach = forward_closure(fns, dispatchers)
    for u in units:
        for qname, start, end in u.fn_extents:
            if qname not in worker_reach:
                continue
            for n in range(start, min(end, len(u.clean_lines)) + 1):
                lt = u.clean_lines[n - 1]
                for m in RNG_DECL_RE.finditer(lt):
                    args = (m.group(2) or m.group(3) or "").strip()
                    if args and RNG_OK_ARG_RE.search(args):
                        continue
                    what = (f"Rng {m.group(1)}(...) seeded from a "
                            "worker-shared constant" if args else
                            f"Rng {m.group(1)} with the default seed")
                    emit("rng-stream-discipline", u.rel, n, qname, what)
                for m in RNG_DEFAULT_DECL_RE.finditer(lt):
                    emit("rng-stream-discipline", u.rel, n, qname,
                         f"Rng {m.group(1)} with the default seed")

    # ---- tick-domain -----------------------------------------------------
    # Self-gating on the WindowIndex vocabulary: a file that never names
    # the window domain cannot mix it.
    for u in units:
        if "WindowIndex" not in u.clean:
            continue
        for qname, start, end in u.fn_extents:
            fi = fns.get(qname)
            fcls = fi.owner if fi else ""
            for n in range(start, min(end, len(u.clean_lines)) + 1):
                lt = u.clean_lines[n - 1]
                if not TICK_MIX_OP_RE.search(lt):
                    continue
                if TICK_CONVERT_RE.search(lt):
                    continue  # explicit conversion: the sanctioned crossing
                domains: set = set()
                for tok in set(re.findall(r"[A-Za-z_]\w*", lt)):
                    ty = u._local_types.get((qname, tok))
                    if ty is None and fcls:
                        ty = u.members.get(fcls, {}).get(tok)
                    if ty is None:
                        hits2 = {u.members[c][tok] for c in u.members
                                 if tok in u.members[c]}
                        ty = next(iter(hits2)) if len(hits2) == 1 else None
                    if ty is None:
                        continue
                    for rx, dom in TICK_DOMAIN_TYPES:
                        if rx.search(ty):
                            domains.add(dom)
                            break
                if len(domains) > 1:
                    emit("tick-domain", u.rel, n, qname,
                         "mixes " + " and ".join(sorted(domains)) +
                         "-domain operands without explicit conversion")
    return sites


def evaluate(facts: Facts, scope_prefixes: tuple) -> list:
    """Turns facts into findings (suppression/baseline not yet applied)."""
    findings: list[Finding] = []
    reach = result_path_functions(facts.functions)

    def in_scope(rel: str) -> bool:
        return any(rel.startswith(p) for p in scope_prefixes)

    for f in facts.sites:
        if not in_scope(f.file):
            continue
        if f.rule == "ordered-iteration":
            if f.context and f.context not in reach \
                    and not RESULT_PATH_SEED.search(f.context.split("::")[-1]):
                continue
            msg = MESSAGES[f.rule] + f" ({f.detail}; via result path "
            msg += f"'{f.context.split('::')[-1]}')"
        elif f.rule == "no-wall-clock":
            if WALLCLOCK_ALLOW.search(f.file):
                continue
            msg = MESSAGES[f.rule] + f" ({f.detail})"
        elif f.rule == "narrowing-in-marking":
            if NARROWING_EXEMPT.search(f.file):
                continue
            msg = MESSAGES[f.rule] + f" ({f.detail})"
        elif f.rule == "torus-wrap":
            if TORUS_WRAP_EXEMPT_FILE.search(f.file):
                continue
            if f.context.split("::")[-1] in TORUS_WRAP_EXEMPT_FN:
                continue
            msg = MESSAGES[f.rule] + f" ({f.detail})"
        else:
            msg = MESSAGES[f.rule] + f" ({f.detail})"
        findings.append(Finding(f.rule, f.file, f.line, f.context, msg))

    for ci_rec in facts.classes.values():
        if not in_scope(ci_rec.file) or not ci_rec.declares_virtual:
            continue
        # Derived classes (any base clause) are out of scope: the rule
        # targets the polymorphic bases users hold handles to, and cindex
        # cannot portably tell an override from a new virtual.
        if ci_rec.has_bases:
            continue
        if not ci_rec.has_virtual_dtor and ci_rec.dtor_access == "public":
            findings.append(Finding(
                "virtual-dtor", ci_rec.file, ci_rec.line, ci_rec.name,
                f"polymorphic base '{ci_rec.name}' lacks a virtual (or "
                "protected) destructor — deleting via a base pointer is UB"))
        if not ci_rec.copy_declared:
            findings.append(Finding(
                "virtual-dtor", ci_rec.file, ci_rec.line, ci_rec.name,
                f"polymorphic base '{ci_rec.name}' leaves copy operations "
                "implicit (C.67): default/delete them as protected to "
                "prevent slicing through a base reference"))
        elif ci_rec.copy_access == "public" and not ci_rec.copy_deleted:
            findings.append(Finding(
                "virtual-dtor", ci_rec.file, ci_rec.line, ci_rec.name,
                f"polymorphic base '{ci_rec.name}' has public non-deleted "
                "copy operations — slicing hazard (C.67); make them "
                "protected or deleted"))
    return findings


# --------------------------------------------------------------------------
# Suppressions, fingerprints, baseline
# --------------------------------------------------------------------------

def collect_allow_comments(files, root: Path):
    """{(rel, line) -> set(rules)} from `// ddpm-analyze: allow(a,b)`."""
    out = {}
    for path in files:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        rel = path.relative_to(root).as_posix()
        for n, line in enumerate(text.splitlines(), 1):
            m = ALLOW_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",")}
                out[(rel, n)] = rules
    return out


def fingerprint(finding: Finding, line_text: str, occurrence: int) -> str:
    norm = re.sub(r"\s+", " ", line_text.strip())
    blob = "|".join([finding.rule, finding.file, finding.context, norm,
                     str(occurrence)])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def assign_fingerprints(findings, root: Path) -> None:
    counts: dict[str, int] = {}
    texts: dict[str, list] = {}
    for f in findings:
        if f.file not in texts:
            try:
                texts[f.file] = (root / f.file).read_text(
                    encoding="utf-8", errors="replace").splitlines()
            except OSError:
                texts[f.file] = []
        lines = texts[f.file]
        lt = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        norm = re.sub(r"\s+", " ", lt.strip())
        key = f"{f.rule}|{f.file}|{f.context}|{norm}"
        occ = counts.get(key, 0)
        counts[key] = occ + 1
        f.fingerprint = fingerprint(f, lt, occ)


def load_baseline(path: Path) -> dict:
    if not path.is_file():
        return {}
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return data.get("entries", {})


def write_baseline(path: Path, findings) -> None:
    entries = {
        f.fingerprint: {"rule": f.rule, "file": f.file, "context": f.context}
        for f in findings
    }
    data = {
        "version": 1,
        "tool": "ddpm_analyze",
        "comment": "Ratchet baseline: pre-existing findings tracked by "
                   "line-insensitive fingerprint. New findings fail; fix "
                   "debt and regenerate with --update-baseline.",
        "entries": dict(sorted(entries.items())),
    }
    path.write_text(json.dumps(data, indent=2) + "\n")


def apply_suppressions_and_baseline(findings, allows, baseline):
    """Marks findings suppressed/baselined; returns (new, stale_allows,
    stale_baseline, used_allow_keys)."""
    used = set()
    for f in findings:
        rules = allows.get((f.file, f.line))
        if rules and f.rule in rules:
            f.suppressed = True
            used.add((f.file, f.line, f.rule))
        elif f.fingerprint in baseline:
            f.baselined = True
    stale_allows = []
    for (rel, line), rules in sorted(allows.items()):
        for rule in sorted(rules):
            if rule not in RULES:
                stale_allows.append(Finding(
                    "stale-suppression", rel, line, "",
                    f"allow({rule}) names an unknown rule"))
            elif (rel, line, rule) not in used:
                stale_allows.append(Finding(
                    "stale-suppression", rel, line, "",
                    f"allow({rule}) " + MESSAGES["stale-suppression"]))
    live = {f.fingerprint for f in findings}
    stale_baseline = sorted(fp for fp in baseline if fp not in live)
    new = [f for f in findings if not f.suppressed and not f.baselined]
    return new, stale_allows, stale_baseline


# --------------------------------------------------------------------------
# Analysis run
# --------------------------------------------------------------------------

def gather_files(root: Path, dirs):
    files = []
    for d in dirs:
        base = root / d
        if base.is_file():
            files.append(base)
            continue
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in (".hpp", ".h", ".cpp", ".cc") and p.is_file():
                files.append(p)
    return files


def facts_cache_key(files, root: Path) -> str:
    """Digest of everything the parsed-facts model depends on: the tool
    version and every analyzed file's path + content."""
    h = hashlib.sha256()
    h.update(f"ddpm_analyze/{TOOL_VERSION}".encode())
    for p in files:
        h.update(p.relative_to(root).as_posix().encode())
        h.update(b"\0")
        try:
            h.update(p.read_bytes())
        except OSError:
            h.update(b"<unreadable>")
        h.update(b"\0")
    return h.hexdigest()


def load_facts_cache(path: Path, key: str):
    import pickle
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except Exception:  # missing, truncated, or incompatible pickle
        return None
    if not isinstance(payload, dict) or payload.get("key") != key:
        return None
    facts = payload.get("facts")
    return facts if isinstance(facts, Facts) else None


def store_facts_cache(path: Path, key: str, facts) -> None:
    import pickle
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            pickle.dump({"tool": "ddpm_analyze", "version": TOOL_VERSION,
                         "key": key, "facts": facts}, fh)
        tmp.replace(path)
    except OSError:
        pass  # a cold cache next run, not an analysis failure


def run_analysis(root: Path, dirs, scope_prefixes,
                 cache_path: Path | None = None):
    files = gather_files(root, dirs)
    key = facts_cache_key(files, root) if cache_path else None
    facts = load_facts_cache(cache_path, key) if cache_path else None
    if facts is not None:
        print("ddpm_analyze: facts cache hit "
              f"({cache_path.name}, {len(files)} files unchanged)")
    if facts is None:
        units = build_textual_units(files, root)
        facts = Facts()
        for u in units:
            facts.merge(Facts(dict(u.functions), dict(u.classes),
                              list(u.sites)))
        facts.sites.extend(hot_pass_sites(units))
        facts.sites.extend(dataflow_pass_sites(units))
        if cache_path:
            store_facts_cache(cache_path, key, facts)
    findings = evaluate(facts, scope_prefixes)
    assign_fingerprints(findings, root)
    allows = collect_allow_comments(files, root)
    return findings, allows, facts


def print_findings(findings, stream=sys.stdout):
    for f in sorted(findings, key=lambda x: (x.file, x.line, x.rule)):
        tag = ""
        if f.baselined:
            tag = " [baselined]"
        elif f.suppressed:
            tag = " [suppressed]"
        print(f"{f.file}:{f.line}: [{f.rule}]{tag} {f.message} "
              f"(fp {f.fingerprint})", file=stream)


# --------------------------------------------------------------------------
# Fixture self-test
# --------------------------------------------------------------------------

def collect_expectations(path: Path):
    out = {}
    for n, line in enumerate(path.read_text(encoding="utf-8",
                                            errors="replace").splitlines(), 1):
        m = EXPECT_RE.search(line)
        if m:
            out.setdefault(n, set()).update(
                r.strip() for r in m.group(1).split(","))
    return out


def self_test(root: Path, fixture_dir: Path) -> int:
    failures = []
    passed = 0
    fixtures = sorted(fixture_dir.glob("*.cpp"))
    if not fixtures:
        print(f"self-test: no fixtures in {fixture_dir}", file=sys.stderr)
        return 1
    for fx in fixtures:
        rel = fx.relative_to(root).as_posix()
        findings, allows, _ = run_analysis(root, [rel], scope_prefixes=(rel,))
        new, stale_allows, _ = apply_suppressions_and_baseline(
            findings, allows, baseline={})
        reported = {}
        for f in new + stale_allows:
            reported.setdefault(f.line, set()).add(f.rule)
        expected = collect_expectations(fx)
        name = fx.name
        ok = True
        for line, rules in sorted(expected.items()):
            for rule in sorted(rules):
                if rule not in reported.get(line, set()):
                    failures.append(f"{name}:{line}: expected [{rule}] "
                                    "but the analyzer did not flag it")
                    ok = False
        for line, rules in sorted(reported.items()):
            for rule in sorted(rules):
                if rule not in expected.get(line, set()):
                    failures.append(f"{name}:{line}: unexpected [{rule}] "
                                    "finding")
                    ok = False
        if name.startswith("good_") and reported:
            ok = False  # already reported above as unexpected
        if ok:
            passed += 1
            must = "must-flag" if expected else "must-pass"
            print(f"self-test: PASS {name} ({must}, "
                  f"{sum(len(r) for r in expected.values())} expectation(s))")
    rc = 0
    # ratchet + fingerprint mechanics, exercised on the first bad fixture
    bad = next((f for f in fixtures if f.name.startswith("bad_")), None)
    if bad is not None:
        rc |= _self_test_ratchet(root, bad)
    for msg in failures:
        print("self-test: FAIL " + msg, file=sys.stderr)
    total_note = f"{passed}/{len(fixtures)} fixtures clean"
    if failures or rc:
        print(f"self-test: FAILED ({total_note})", file=sys.stderr)
        return 1
    print(f"self-test: OK ({total_note})")
    return 0


def _self_test_ratchet(root: Path, bad_fixture: Path) -> int:
    """Baseline round-trip: baselined findings don't fail; fingerprints
    survive line shifts; removing the violation strands the baseline."""
    import tempfile

    rel = bad_fixture.relative_to(root).as_posix()
    findings, allows, _ = run_analysis(root, [rel], (rel,))
    findings = [f for f in findings if not allows.get((f.file, f.line))]
    if not findings:
        print("self-test: FAIL ratchet: no findings in " + rel, file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(dir=str(root / "tests")) as td:
        bl = Path(td) / "baseline.json"
        write_baseline(bl, findings)
        baseline = load_baseline(bl)
        new, _, stale_bl = apply_suppressions_and_baseline(
            findings, {}, baseline)
        if new:
            print("self-test: FAIL ratchet: baselined findings still "
                  "reported as new", file=sys.stderr)
            return 1
        if stale_bl:
            print("self-test: FAIL ratchet: live findings reported stale",
                  file=sys.stderr)
            return 1
        # line-shift stability: prepend blank lines, re-analyze a copy
        shifted_dir = Path(td)
        shifted = shifted_dir / ("shift_" + bad_fixture.name)
        shifted.write_text("\n\n\n" + bad_fixture.read_text())
        srel = shifted.relative_to(root).as_posix()
        f2, _, _ = run_analysis(root, [srel], (srel,))
        fp1 = sorted({f.fingerprint for f in findings})
        fp2 = sorted({f.fingerprint.replace("", "") for f in f2})
        # fingerprints hash file path too; compare via rule+context+count
        sig1 = sorted((f.rule, f.context.split("::")[-1]) for f in findings)
        sig2 = sorted((f.rule, f.context.split("::")[-1]) for f in f2)
        if sig1 != sig2:
            print("self-test: FAIL ratchet: line-shifted copy changed the "
                  f"finding set ({sig1} vs {sig2})", file=sys.stderr)
            return 1
        del fp1, fp2
    print("self-test: PASS ratchet mechanics (baseline round-trip, "
          "line-shift stability)")
    return 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", default=".", help="repo root")
    ap.add_argument("--baseline", default="tools/ddpm_analyze_baseline.json")
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--self-test", metavar="DIR", default=None)
    ap.add_argument("--json", metavar="OUT", default=None)
    ap.add_argument("--only", metavar="RULE[,RULE...]", default=None)
    ap.add_argument("--facts-cache", metavar="PATH", default=None)
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv[1:])

    if args.list_rules:
        for r in RULES + META_RULES:
            print(f"{r}: {MESSAGES[r]}")
        return 0

    only = None
    if args.only is not None:
        only = {r.strip() for r in args.only.split(",") if r.strip()}
        unknown = sorted(only - set(RULES))
        if not only or unknown:
            what = ", ".join(unknown) if unknown else "(empty)"
            print(f"ddpm_analyze: --only names unknown rule(s): {what}",
                  file=sys.stderr)
            print("ddpm_analyze: known rules: " + ", ".join(RULES),
                  file=sys.stderr)
            return 2
        if args.update_baseline:
            print("ddpm_analyze: --update-baseline cannot be combined with "
                  "--only (a scoped run would drop every other rule's "
                  "baseline entries)", file=sys.stderr)
            return 2

    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"ddpm_analyze: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    if args.self_test:
        st = self_test(root, Path(args.self_test).resolve())
        if st != 0:
            return st

    cache_path = Path(args.facts_cache) if args.facts_cache else None
    findings, allows, facts = run_analysis(
        root, ["src"], scope_prefixes=("src/",),
        cache_path=cache_path)
    baseline_path = root / args.baseline
    if args.update_baseline:
        keep = [f for f in findings
                if not (allows.get((f.file, f.line)) or set()) & {f.rule}]
        write_baseline(baseline_path, keep)
        print(f"ddpm_analyze: baseline updated with {len(keep)} entr"
              f"{'y' if len(keep) == 1 else 'ies'} -> {args.baseline}")
        return 0

    baseline = load_baseline(baseline_path)
    if only is not None:
        # Scoped run: other rules' findings, allow() comments, and baseline
        # entries are out of scope — not reported, not consumed, not stale.
        findings = [f for f in findings if f.rule in only]
        allows = {k: rules & only for k, rules in allows.items()
                  if rules & only}
        baseline = {fp: e for fp, e in baseline.items()
                    if e.get("rule") in only}
    new, stale_allows, stale_baseline = apply_suppressions_and_baseline(
        findings, allows, baseline)

    print_findings(findings)
    for f in stale_allows:
        print(f"{f.file}:{f.line}: [stale-suppression] {f.message}")

    if args.json:
        payload = {
            "findings": [vars(f) for f in findings + stale_allows],
            "stale_baseline": stale_baseline,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")

    n_sup = sum(1 for f in findings if f.suppressed)
    n_base = sum(1 for f in findings if f.baselined)
    print(f"ddpm_analyze: files=src/ "
          f"functions={len(facts.functions)} classes={len(facts.classes)} | "
          f"{len(new)} new, {n_base} baselined, {n_sup} suppressed, "
          f"{len(stale_allows)} stale suppression(s), "
          f"{len(stale_baseline)} stale baseline entr"
          f"{'y' if len(stale_baseline) == 1 else 'ies'}")

    if stale_baseline:
        for fp in stale_baseline:
            e = baseline.get(fp, {})
            print(f"ddpm_analyze: stale baseline entry {fp} "
                  f"({e.get('rule')} in {e.get('file')}) — debt was fixed; "
                  "regenerate with --update-baseline", file=sys.stderr)
    if new or stale_allows or stale_baseline:
        return 1
    print("ddpm_analyze: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
