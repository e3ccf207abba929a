#!/usr/bin/env python3
"""CloudFog determinism & correctness lint.

Enforces project-specific invariants that the compiler cannot:

  cloudfog-wallclock       no wall-clock or libc randomness outside src/sim/
                           seeding: std::chrono::system_clock, time(),
                           rand()/srand(), std::random_device, gettimeofday,
                           clock_gettime, localtime/gmtime/strftime. Seeded
                           replay (CLOUDFOG_FAULT_SEED) and byte-identical
                           fig7/fig8 reports both die the moment real time
                           leaks into simulation state.
  cloudfog-unordered-iter  no iteration over std::unordered_{map,set}:
                           bucket order is implementation- and seed-defined,
                           so any loop over one is a nondeterminism hazard
                           for metrics, traces and reports. Iterate a sorted
                           copy, keep a side vector in insertion order, or
                           suppress with a justification when the loop is
                           provably order-insensitive.
  cloudfog-pointer-key     no pointer-keyed std::map/std::set/unordered
                           containers and no sort comparators that order by
                           raw pointer value: addresses vary run to run.
  cloudfog-uninit-pod      POD members of structs under src/ must carry an
                           in-class initializer; an uninitialized member read
                           is UB and (worse for us) nondeterministic.
  cloudfog-metric-once     every obs metric name (counter/gauge/histogram)
                           is registered at exactly one site; Registry
                           registration is idempotent, so two subsystems
                           silently aliasing one name is a reporting bug.
  cloudfog-unreached       every header under src/ (outside src/oracle/,
                           the test oracles) is reached by #include from a
                           file under bench/, examples/ or perfbench/ —
                           directly, through other headers, or through the
                           .cpp beside a reached header. A module no output
                           reaches is wired in or deleted, not kept.

Determinism rules for stochastic and numeric code (DESIGN.md §13):

  cloudfog-raw-rng         construction of std::mt19937 & friends,
                           std::random_device or rand()/srand() anywhere
                           outside src/util/rng: every stochastic decision
                           must flow from the seeded util::Rng (PCG32) so
                           runs replay bit-exactly across platforms.
  cloudfog-float-reduce    accumulation into a floating scalar across an
                           unordered container: float addition is not
                           associative, so bucket order changes the result
                           bytes. Iterate a sorted copy instead.
  cloudfog-static-mutable  non-const static at namespace or function scope
                           under src/ (outside the whitelisted note-table
                           interner): hidden mutable process state breaks
                           run-to-run isolation and is a shared-write
                           hazard the moment two threads can reach it.
                           Make it const, pass it explicitly, or suppress
                           with a justification.

Suppression: append `// NOLINT(cloudfog-<rule>): <justification>` to the
offending line, or put `// NOLINTNEXTLINE(cloudfog-<rule>): <justification>`
on the line above. A suppression without a justification is itself an error
(cloudfog-nolint).

Engine: uses the libclang AST when the `clang` python package is importable
(exact type resolution for unordered-iter / pointer-key), and falls back to a
resilient token-level scanner otherwise. The token engine strips comments and
string literals before matching, tracks declarations of unordered containers
(including those in a sibling header), and is the engine of record in CI
images without libclang.

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import bisect
import os
import re
import sys
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")

RULES = {
    "cloudfog-wallclock": "wall-clock / libc randomness outside src/sim/ seeding",
    "cloudfog-unordered-iter": "iteration over an unordered container",
    "cloudfog-pointer-key": "pointer-keyed associative container or pointer-order comparator",
    "cloudfog-uninit-pod": "uninitialized POD member in a struct under src/",
    "cloudfog-metric-once": "obs metric name registered at more than one site",
    "cloudfog-unreached": "src/ header that no bench/, examples/ or perfbench/ file reaches",
    "cloudfog-raw-rng": "raw RNG engine / entropy source outside src/util/rng",
    "cloudfog-float-reduce": "order-sensitive floating accumulation",
    "cloudfog-static-mutable": "non-const namespace/function-scope static under src/",
    "cloudfog-nolint": "NOLINT suppression without a justification",
}

# Directories (relative to repo root) whose files are exempt from the
# wallclock rule: simulation seeding legitimately consumes entropy here.
WALLCLOCK_EXEMPT_PREFIXES = ("src/sim/",)


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    path: str          # repo-relative, forward slashes
    raw_lines: list[str]
    code_lines: list[str] = field(default_factory=list)  # comments/strings blanked


NOLINT_RE = re.compile(r"//\s*NOLINT(NEXTLINE)?\s*\(([^)]*)\)\s*(?::\s*(.*\S))?")


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments, string and char literals, preserving layout.

    Replaced characters become spaces so that column/line arithmetic and
    word boundaries survive. Handles // and /* */ comments, escapes inside
    literals, and raw strings well enough for this codebase (no multi-line
    raw strings with parens in the delimiter).
    """
    out = []
    in_block_comment = False
    for line in lines:
        buf = []
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            if in_block_comment:
                if c == "*" and i + 1 < n and line[i + 1] == "/":
                    in_block_comment = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
                continue
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                buf.append(" " * (n - i))
                break
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block_comment = True
                buf.append("  ")
                i += 2
                continue
            if c in "\"'":
                quote = c
                buf.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                        continue
                    if line[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    buf.append(" ")
                    i += 1
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
    return out


def load_source(abs_path: str, rel_path: str) -> SourceFile:
    with open(abs_path, encoding="utf-8", errors="replace") as f:
        raw = f.read().splitlines()
    sf = SourceFile(path=rel_path.replace(os.sep, "/"), raw_lines=raw)
    sf.code_lines = strip_comments_and_strings(raw)
    return sf


# --------------------------------------------------------------------------
# Suppression handling
# --------------------------------------------------------------------------

def suppressions_for(sf: SourceFile) -> tuple[dict[int, set[str]], list[Finding]]:
    """Returns {1-based line: {rules suppressed on that line}} and any
    malformed-suppression findings (missing justification)."""
    by_line: dict[int, set[str]] = {}
    bad: list[Finding] = []
    for idx, line in enumerate(sf.raw_lines, start=1):
        m = NOLINT_RE.search(line)
        if not m:
            continue
        nextline, rules_text, justification = m.group(1), m.group(2), m.group(3)
        rules = {r.strip() for r in rules_text.split(",") if r.strip()}
        unknown = {r for r in rules if r.startswith("cloudfog-") and r not in RULES}
        for r in sorted(unknown):
            bad.append(Finding(sf.path, idx, "cloudfog-nolint",
                               f"NOLINT names unknown rule '{r}'"))
        cloudfog_rules = {r for r in rules if r in RULES}
        if not cloudfog_rules:
            continue  # foreign NOLINT (e.g. clang-tidy) — not ours to police
        if not justification:
            bad.append(Finding(sf.path, idx, "cloudfog-nolint",
                               "NOLINT(cloudfog-*) requires a justification: "
                               "`// NOLINT(cloudfog-rule): why this is safe`"))
            continue
        target = idx + 1 if nextline else idx
        by_line.setdefault(target, set()).update(cloudfog_rules)
    return by_line, bad


# --------------------------------------------------------------------------
# Rule: cloudfog-wallclock
# --------------------------------------------------------------------------

WALLCLOCK_PATTERNS = [
    (re.compile(r"std::chrono::system_clock|\bsystem_clock\s*::"),
     "std::chrono::system_clock reads wall-clock time"),
    (re.compile(r"(?<![\w.:>])time\s*\(|std::time\s*\("),
     "time() reads wall-clock time"),
    (re.compile(r"(?<![\w.:>])s?rand\s*\(|std::s?rand\s*\("),
     "rand()/srand() is non-seedable global state"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device draws real entropy"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|localtime(?:_r)?|gmtime(?:_r)?|strftime)\s*\("),
     "libc wall-clock API"),
]


def check_wallclock(sf: SourceFile) -> list[Finding]:
    if any(sf.path.startswith(p) for p in WALLCLOCK_EXEMPT_PREFIXES):
        return []
    findings = []
    for idx, line in enumerate(sf.code_lines, start=1):
        for pat, why in WALLCLOCK_PATTERNS:
            if pat.search(line):
                findings.append(Finding(
                    sf.path, idx, "cloudfog-wallclock",
                    f"{why}; simulation code must derive all time/randomness "
                    "from the sim clock and seeded util::Rng"))
    return findings


# --------------------------------------------------------------------------
# Rule: cloudfog-unordered-iter
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def unordered_vars(code_lines: list[str]) -> set[str]:
    """Names of variables/members declared with an unordered container type.

    Scans for `unordered_map<...> name` / `unordered_set<...> name`,
    balancing template angle brackets across line breaks.
    """
    names: set[str] = set()
    text = "\n".join(code_lines)
    for m in UNORDERED_DECL_RE.finditer(text):
        i = m.end() - 1  # at '<'
        depth = 0
        n = len(text)
        while i < n:
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if depth != 0:
            continue
        rest = text[i + 1:i + 200]
        dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:[;={(,)]|$)", rest)
        if dm:
            name = dm.group(1)
            if name not in ("const",):
                names.add(name)
    return names


def sibling_header_vars(abs_path: str) -> set[str]:
    """For foo.cpp, also pick up unordered members declared in foo.hpp/.h."""
    base, ext = os.path.splitext(abs_path)
    if ext not in (".cpp", ".cc", ".cxx"):
        return set()
    for hext in (".hpp", ".hh", ".h"):
        hpath = base + hext
        if os.path.isfile(hpath):
            with open(hpath, encoding="utf-8", errors="replace") as f:
                return unordered_vars(strip_comments_and_strings(f.read().splitlines()))
    return set()


def range_for_expr(line: str) -> str | None:
    """Range expression of a range-for on this line, or None.

    Balances parens after `for (` (the head may close on a later line — then
    the rest of this line is taken), skips classic three-clause fors (`;` in
    the head), and splits at the top-level `:` that is not part of `::`.
    """
    m = re.search(r"\bfor\s*\(", line)
    if not m:
        return None
    i = m.end()
    depth = 1
    head_end = len(line)
    while i < len(line):
        if line[i] == "(":
            depth += 1
        elif line[i] == ")":
            depth -= 1
            if depth == 0:
                head_end = i
                break
        i += 1
    head = line[m.end():head_end]
    if ";" in head:
        return None
    colon = None
    j = 0
    bracket = 0
    while j < len(head):
        c = head[j]
        if c in "[<(":
            bracket += 1
        elif c in "]>)":
            bracket -= 1
        elif c == ":" and bracket <= 0:
            if head[j - 1:j] == ":" or head[j + 1:j + 2] == ":":
                j += 2
                continue
            colon = j
            break
        j += 1
    if colon is None:
        return None
    return head[colon + 1:]


def check_unordered_iter(sf: SourceFile, abs_path: str) -> list[Finding]:
    names = unordered_vars(sf.code_lines) | sibling_header_vars(abs_path)
    findings = []
    fix = ("iterate a sorted copy or a side vector in insertion order, or "
           "suppress with a justification if provably order-insensitive")
    for idx, line in enumerate(sf.code_lines, start=1):
        # Range-for directly over an unordered-typed expression.
        expr = range_for_expr(line)
        if expr is not None:
            if "unordered_" in expr:
                findings.append(Finding(
                    sf.path, idx, "cloudfog-unordered-iter",
                    f"range-for over an unordered container; {fix}"))
                continue
            expr_ids = set(IDENT_RE.findall(expr))
            hit = expr_ids & names
            if hit:
                findings.append(Finding(
                    sf.path, idx, "cloudfog-unordered-iter",
                    f"range-for over unordered container '{sorted(hit)[0]}'; {fix}"))
                continue
        # Iterator-style loops / explicit traversal entry points.
        for name in names:
            if re.search(rf"\b{re.escape(name)}\s*\.\s*c?begin\s*\(", line):
                findings.append(Finding(
                    sf.path, idx, "cloudfog-unordered-iter",
                    f"iterator traversal of unordered container '{name}'; {fix}"))
                break
    return findings


# --------------------------------------------------------------------------
# Rule: cloudfog-pointer-key
# --------------------------------------------------------------------------

POINTER_KEY_RE = re.compile(
    r"\b(?:std::)?(unordered_)?(map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[A-Za-z_][\w:<>]*\s*\*")
SORT_CALL_RE = re.compile(r"\b(?:std::)?(?:stable_)?sort\s*\(")
PTR_LAMBDA_RE = re.compile(
    r"\[[^\]]*\]\s*\(\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*\s*(?:const\s+)?([A-Za-z_]\w*)\s*,"
    r"\s*(?:const\s+)?[A-Za-z_][\w:]*\s*\*\s*(?:const\s+)?([A-Za-z_]\w*)\s*\)")


def check_pointer_key(sf: SourceFile) -> list[Finding]:
    findings = []
    for idx, line in enumerate(sf.code_lines, start=1):
        if POINTER_KEY_RE.search(line):
            findings.append(Finding(
                sf.path, idx, "cloudfog-pointer-key",
                "associative container keyed on a raw pointer: address order "
                "(and hash placement) varies run to run; key on a stable id"))
    # Pointer-ordering comparators: a sort whose lambda takes two pointers
    # and returns `a < b` on the pointers themselves. Window a few lines
    # past the sort call to catch wrapped arguments.
    text_lines = sf.code_lines
    for idx, line in enumerate(text_lines, start=1):
        if not SORT_CALL_RE.search(line):
            continue
        window = " ".join(text_lines[idx - 1:idx + 3])
        lm = PTR_LAMBDA_RE.search(window)
        if not lm:
            continue
        a, b = lm.group(1), lm.group(2)
        if re.search(rf"return\s+{re.escape(a)}\s*[<>]\s*{re.escape(b)}\s*;", window):
            findings.append(Finding(
                sf.path, idx, "cloudfog-pointer-key",
                f"sort comparator orders by raw pointer value ('{a} < {b}'): "
                "addresses vary run to run; compare a stable field instead"))
    return findings


# --------------------------------------------------------------------------
# Rule: cloudfog-uninit-pod
# --------------------------------------------------------------------------

POD_TYPE_RE = (
    r"(?:unsigned\s+|signed\s+)?"
    r"(?:bool|char|short|int|long(?:\s+long)?|float|double|"
    r"std::size_t|std::ptrdiff_t|std::u?int(?:8|16|32|64)?_t|size_t|"
    r"u?int(?:8|16|32|64)_t)"
)
POD_MEMBER_RE = re.compile(
    rf"^\s*(?:const\s+)?({POD_TYPE_RE})(?:\s+const)?\s+"
    r"([A-Za-z_]\w*)\s*;\s*$")
POD_PTR_MEMBER_RE = re.compile(
    r"^\s*(?:const\s+)?[A-Za-z_][\w:]*(?:<[^;]*>)?\s*\*\s*(?:const\s+)?"
    r"([A-Za-z_]\w*)\s*;\s*$")
STRUCT_OPEN_RE = re.compile(r"\bstruct\s+([A-Za-z_]\w*)?[^;{]*\{")


def check_uninit_pod(sf: SourceFile) -> list[Finding]:
    # Applies to the library tree (any path with a src/ segment, so lint
    # fixtures can exercise the rule from tests/tools/fixtures/src/).
    if not re.search(r"(^|/)src/", sf.path):
        return []
    findings = []
    # Track `struct ... {` regions by brace depth; only flag member lines at
    # the struct body's own depth (nested function bodies sit deeper, nested
    # structs push their own frame).
    struct_depths: list[int] = []  # brace depth of each open struct body
    depth = 0
    for idx, line in enumerate(sf.code_lines, start=1):
        opens = STRUCT_OPEN_RE.search(line)
        if struct_depths and depth == struct_depths[-1] and not opens:
            m = POD_MEMBER_RE.match(line) or POD_PTR_MEMBER_RE.match(line)
            if m:
                name = m.group(m.lastindex)
                findings.append(Finding(
                    sf.path, idx, "cloudfog-uninit-pod",
                    f"POD member '{name}' has no in-class initializer; "
                    "default-constructed instances read indeterminate "
                    "values — add `{}` or an explicit default"))
        if opens:
            before = line[:opens.end()]
            struct_depths.append(depth + before.count("{") - before.count("}"))
        depth += line.count("{") - line.count("}")
        while struct_depths and depth < struct_depths[-1]:
            struct_depths.pop()
    return findings


# --------------------------------------------------------------------------
# Rule: cloudfog-metric-once (cross-file)
# --------------------------------------------------------------------------

METRIC_REG_RE = re.compile(r"\b(counter|gauge|histogram)\s*\(\s*\"")
METRIC_NAME_RE = re.compile(r"\b(?:counter|gauge|histogram)\s*\(\s*\"([^\"]+)\"")


def collect_metric_sites(sf: SourceFile) -> list[tuple[str, int, str]]:
    """(metric name, line, kind) for each registration site in this file.

    Matches against raw lines (the name lives in a string literal, which the
    sanitized text blanks out) but requires the call shape on the sanitized
    line so that commented-out code does not count.
    """
    sites = []
    for idx, (raw, code) in enumerate(zip(sf.raw_lines, sf.code_lines), start=1):
        if not METRIC_REG_RE.search(code):
            continue
        for m in METRIC_NAME_RE.finditer(raw):
            # Skip read-side helpers like counter_or_zero("name").
            prefix = raw[:m.start()]
            if prefix.rstrip().endswith(("_or_zero", "_value", "_name")):
                continue
            kind = m.group(0).split("(")[0].strip()
            sites.append((m.group(1), idx, kind))
    return sites


def check_metric_once(per_file_sites: dict[str, list[tuple[str, int, str]]],
                      suppressed: dict[str, dict[int, set[str]]]) -> list[Finding]:
    by_name: dict[str, list[tuple[str, int, str]]] = {}
    for path, sites in per_file_sites.items():
        for name, line, kind in sites:
            if "cloudfog-metric-once" in suppressed.get(path, {}).get(line, set()):
                continue
            by_name.setdefault(name, []).append((path, line, kind))
    findings = []
    for name, sites in sorted(by_name.items()):
        if len(sites) <= 1:
            continue
        locs = ", ".join(f"{p}:{l}" for p, l, _ in sites)
        for path, line, _ in sites:
            findings.append(Finding(
                path, line, "cloudfog-metric-once",
                f"metric '{name}' registered at {len(sites)} sites ({locs}); "
                "register once and pass the handle"))
    return findings


# --------------------------------------------------------------------------
# Rule: cloudfog-unreached (whole-tree)
# --------------------------------------------------------------------------

# The program's entry points live under these directories of a tree; the
# library lives under its src/. src/oracle/ holds the test oracles, which
# only tests link.
REACH_ENTRY_DIRS = ("bench", "examples", "perfbench")
REACH_EXEMPT_DIR = "oracle"
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
HEADER_EXTENSIONS = (".hpp", ".hh", ".h")
SOURCE_EXTENSIONS = (".cpp", ".cc", ".cxx")


def tree_of(rel_path: str) -> str | None:
    """Repo-relative directory holding the src/ that `rel_path` lies under
    ('' for the repository itself), or None outside any src/."""
    parts = rel_path.split("/")
    if "src" not in parts[:-1]:
        return None
    last = len(parts) - 2 - parts[-2::-1].index("src")
    return "/".join(parts[:last])


def included_files(abs_path: str, src_dir: str) -> list[str]:
    """Quoted #includes of a file that resolve, beside it or under src/."""
    found = []
    with open(abs_path, encoding="utf-8", errors="replace") as f:
        for line in f:
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            for base in (os.path.dirname(abs_path), src_dir):
                cand = os.path.normpath(os.path.join(base, m.group(1)))
                if os.path.isfile(cand):
                    found.append(cand)
                    break
    return found


def reached_files(tree_abs: str) -> set[str] | None:
    """Absolute paths of every file reached by #include from the tree's
    entry directories; a reached header also reaches the .cpp beside it
    (compiled into the same target). None when the tree has no entry
    directory (a lint fixture directory, say): there is nothing to reach
    from, so the rule does not apply."""
    entries = [d for d in REACH_ENTRY_DIRS if os.path.isdir(os.path.join(tree_abs, d))]
    if not entries:
        return None
    src_dir = os.path.join(tree_abs, "src")
    stack = [ap for d in entries for ap, _ in gather_files([os.path.join(tree_abs, d)])]
    seen: set[str] = set()
    while stack:
        path = stack.pop()
        for inc in included_files(path, src_dir):
            if inc in seen:
                continue
            seen.add(inc)
            stack.append(inc)
            stem, ext = os.path.splitext(inc)
            if ext in HEADER_EXTENSIONS:
                for src_ext in SOURCE_EXTENSIONS:
                    impl = stem + src_ext
                    if os.path.isfile(impl) and impl not in seen:
                        seen.add(impl)
                        stack.append(impl)
    return seen


def check_unreached(paths: list[str],
                    suppressed: dict[str, dict[int, set[str]]]) -> list[Finding]:
    reached_by_tree: dict[str, set[str] | None] = {}
    findings = []
    for path in paths:
        if not path.endswith(HEADER_EXTENSIONS):
            continue
        tree = tree_of(path)
        if tree is None:
            continue
        if path.startswith(f"{tree}/src/{REACH_EXEMPT_DIR}/".lstrip("/")):
            continue
        if tree not in reached_by_tree:
            reached_by_tree[tree] = reached_files(os.path.join(REPO_ROOT, tree))
        reached = reached_by_tree[tree]
        if reached is None or os.path.join(REPO_ROOT, path) in reached:
            continue
        if "cloudfog-unreached" in suppressed.get(path, {}).get(1, set()):
            continue
        entry = ", ".join(os.path.join(tree, d) + "/" for d in REACH_ENTRY_DIRS)
        findings.append(Finding(
            path, 1, "cloudfog-unreached",
            f"no file under {entry} reaches this header by #include; wire it "
            "into an output, move a test oracle to src/oracle/, or delete it"))
    return findings


# --------------------------------------------------------------------------
# Shared machinery for loop-body-scoped rules
# --------------------------------------------------------------------------

class FlatText:
    """Sanitized source flattened to one string, with offset→line mapping."""

    def __init__(self, code_lines: list[str]):
        self.text = "\n".join(code_lines)
        self.starts: list[int] = []
        off = 0
        for line in code_lines:
            self.starts.append(off)
            off += len(line) + 1

    def line_of(self, pos: int) -> int:
        """1-based line containing offset `pos`."""
        return bisect.bisect_right(self.starts, pos)


def match_brace(text: str, open_pos: int) -> int:
    """Offset of the `}` matching the `{` at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


# Declaration on one line: optional qualifiers, a type token (possibly
# templated / qualified), then the declared name followed by an
# initializer, call, brace-init, subscript or `;`. Heuristic — one name
# per line, which matches the codebase style.
DECL_RE = re.compile(
    r"^\s*(?:for\s*\(\s*)?"
    r"(?:const\s+|constexpr\s+|mutable\s+|struct\s+|auto\s+)*"
    r"[A-Za-z_][\w:]*(?:\s*<[^;{}]*>)?(?:\s*[&*])*\s+"
    r"[&*]?\s*([A-Za-z_]\w*)\s*(?:[=;({\[]|$)")

FLOAT_COMPOUND_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*[+\-*/]=(?!=)")


def sibling_header_lines(abs_path: str) -> list[str]:
    """Sanitized lines of foo.hpp/.hh/.h next to foo.cpp (else [])."""
    base, ext = os.path.splitext(abs_path)
    if ext not in (".cpp", ".cc", ".cxx"):
        return []
    for hext in (".hpp", ".hh", ".h"):
        hpath = base + hext
        if os.path.isfile(hpath):
            with open(hpath, encoding="utf-8", errors="replace") as f:
                return strip_comments_and_strings(f.read().splitlines())
    return []


def float_var_names(code_lines: list[str]) -> set[str]:
    """Names declared with float/double type (members and locals alike)."""
    names = set()
    pat = re.compile(r"\b(?:double|float)\s+([A-Za-z_]\w*)\s*(?:[=;{,)]|$)")
    for line in code_lines:
        for m in pat.finditer(line):
            names.add(m.group(1))
    return names


# --------------------------------------------------------------------------
# Rule: cloudfog-raw-rng
# --------------------------------------------------------------------------

RAW_RNG_EXEMPT_PREFIXES = ("src/util/rng",)

RAW_RNG_PATTERNS = [
    (re.compile(r"\bmt19937(?:_64)?\b"),
     "std::mt19937 is not bit-exact across standard libraries"),
    (re.compile(r"\b(?:minstd_rand0?|ranlux(?:24|48)(?:_base)?|knuth_b|"
                r"default_random_engine)\b"),
     "standard-library RNG engine"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device draws real entropy"),
    (re.compile(r"(?<![\w.:>])s?rand\s*\(|std::s?rand\s*\(|\bdrand48\s*\(|"
                r"\blrand48\s*\(|(?<![\w.:>])random\s*\("),
     "libc RNG is non-replayable global state"),
]


def check_raw_rng(sf: SourceFile) -> list[Finding]:
    if any(sf.path.startswith(p) for p in RAW_RNG_EXEMPT_PREFIXES):
        return []
    findings = []
    for idx, line in enumerate(sf.code_lines, start=1):
        for pat, why in RAW_RNG_PATTERNS:
            if pat.search(line):
                findings.append(Finding(
                    sf.path, idx, "cloudfog-raw-rng",
                    f"{why}; derive a stream from the seeded util::Rng "
                    "(PCG32) / util::splitmix64 instead"))
    return findings


# --------------------------------------------------------------------------
# Rule: cloudfog-float-reduce
# --------------------------------------------------------------------------

def check_float_reduce_loops(sf: SourceFile, abs_path: str) -> list[Finding]:
    names = unordered_vars(sf.code_lines) | sibling_header_vars(abs_path)
    tx = FlatText(sf.code_lines)
    header = sibling_header_lines(abs_path)
    float_vars = float_var_names(sf.code_lines) | float_var_names(header)
    findings = []
    for idx, line in enumerate(sf.code_lines, start=1):
        expr = range_for_expr(line)
        if expr is None:
            continue
        expr_ids = set(IDENT_RE.findall(expr))
        if "unordered_" not in expr and not (expr_ids & names):
            continue
        # Body extent: the brace-block after the head, or the rest of the
        # statement for a braceless single-statement body.
        start = tx.starts[idx - 1]
        open_pos = tx.text.find("{", start)
        semi_pos = tx.text.find(";", start)
        if open_pos != -1 and (semi_pos == -1 or open_pos < semi_pos):
            close = match_brace(tx.text, open_pos)
            if close == -1:
                continue
            first, last = tx.line_of(open_pos), tx.line_of(close)
        else:
            first = last = tx.line_of(semi_pos if semi_pos != -1 else start)
        body_locals: set[str] = set()
        for bidx in range(first, last + 1):
            bline = sf.code_lines[bidx - 1]
            dm = DECL_RE.match(bline)
            if dm:
                body_locals.add(dm.group(1))
            for m in FLOAT_COMPOUND_RE.finditer(bline):
                base = m.group(1)
                if base in body_locals or base not in float_vars:
                    continue
                findings.append(Finding(
                    sf.path, bidx, "cloudfog-float-reduce",
                    f"floating accumulation into '{base}' while iterating an "
                    "unordered container: bucket order is seed-defined and "
                    "float addition is not associative — iterate a sorted "
                    "copy or accumulate in a keyed side structure"))
    return findings


# --------------------------------------------------------------------------
# Rule: cloudfog-static-mutable
# --------------------------------------------------------------------------

# The note-table interner is the sanctioned immortal singleton (DESIGN.md
# §11.0): trace sinks resolve note ids during static destruction, so the
# table must outlive every normally-scoped static.
STATIC_MUTABLE_WHITELIST = ("src/obs/note_table.cpp",)

STATIC_DECL_RE = re.compile(r"^\s*(?:inline\s+)?(?:thread_local\s+)?static\b(?!_)")
CLASS_OPEN_RE = re.compile(r"\b(?:struct|class)\s+(?:[A-Za-z_]\w*)?[^;{]*\{")


def static_decl_kind(rest: str) -> str | None:
    """Classify what follows `static`: 'var' (mutable), 'const', 'fn' or None.

    Scans for the first of `=`, `;`, `(`, `{` outside template angle
    brackets: `(` first means a function declaration/definition, `=`/`;`
    first means a variable.
    """
    rest = re.sub(r"^\s*(?:inline\s+|thread_local\s+)*", "", rest)
    if re.match(r"\s*(?:const\b|constexpr\b)", rest):
        return "const"
    angle = 0
    for c in rest:
        if c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif angle == 0:
            if c == "(":
                return "fn"
            if c in "=;{":
                return "var"
    return None


def check_static_mutable(sf: SourceFile) -> list[Finding]:
    if not re.search(r"(^|/)src/", sf.path):
        return []
    if any(sf.path.endswith(w) for w in STATIC_MUTABLE_WHITELIST):
        return []
    findings = []
    class_depths: list[int] = []
    depth = 0
    for idx, line in enumerate(sf.code_lines, start=1):
        opens = CLASS_OPEN_RE.search(line)
        at_member_depth = bool(class_depths) and depth == class_depths[-1]
        m = STATIC_DECL_RE.match(line)
        # Static *data members* are a separate concern (they are at least
        # visible in the class API); this rule targets the hidden ones at
        # namespace/function scope.
        if m and not at_member_depth:
            kind = static_decl_kind(line[line.find("static") + len("static"):])
            if kind == "var":
                findings.append(Finding(
                    sf.path, idx, "cloudfog-static-mutable",
                    "non-const static at namespace/function scope: hidden "
                    "mutable process state outlives runs and is writable "
                    "from any thread — make it const, pass it explicitly, "
                    "or justify with a NOLINT"))
        if opens:
            before = line[:opens.end()]
            class_depths.append(depth + before.count("{") - before.count("}"))
        depth += line.count("{") - line.count("}")
        while class_depths and depth < class_depths[-1]:
            class_depths.pop()
    return findings


# --------------------------------------------------------------------------
# Optional libclang engine
# --------------------------------------------------------------------------

def try_clang_engine():
    """Returns the clang.cindex module if importable and able to parse, else
    None. The AST engine refines unordered-iter and pointer-key; all other
    rules always run on the token engine."""
    try:
        from clang import cindex  # type: ignore
        cindex.Index.create()
        return cindex
    except Exception:
        return None


def clang_check_file(cindex, abs_path: str, rel_path: str) -> list[Finding] | None:
    """AST-precise unordered-iter + pointer-key for one file. Returns None on
    any parse trouble so the caller falls back to the token engine."""
    try:
        index = cindex.Index.create()
        tu = index.parse(abs_path, args=["-std=c++20", f"-I{os.path.join(REPO_ROOT, 'src')}"])
        if any(d.severity >= cindex.Diagnostic.Fatal for d in tu.diagnostics):
            return None
        findings: list[Finding] = []

        def type_is_unordered(t) -> bool:
            return "unordered_map" in t.spelling or "unordered_set" in t.spelling

        def walk(node):
            if node.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                children = list(node.get_children())
                if len(children) >= 2 and type_is_unordered(children[-2].type):
                    findings.append(Finding(
                        rel_path, node.location.line, "cloudfog-unordered-iter",
                        "range-for over an unordered container (AST engine)"))
            if node.kind in (cindex.CursorKind.VAR_DECL, cindex.CursorKind.FIELD_DECL):
                t = node.type.spelling
                if re.search(r"\b(?:unordered_)?(?:map|set)<[^,>]*\*", t):
                    findings.append(Finding(
                        rel_path, node.location.line, "cloudfog-pointer-key",
                        f"associative container keyed on a raw pointer: {t}"))
            for c in node.get_children():
                if c.location.file and c.location.file.name == abs_path:
                    walk(c)

        walk(tu.cursor)
        return findings
    except Exception:
        return None


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def gather_files(paths: list[str]) -> list[tuple[str, str]]:
    """(abs, repo-relative) pairs for every C++ source under `paths`."""
    result = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(REPO_ROOT, p)
        ap = os.path.abspath(ap)
        if os.path.isfile(ap):
            if ap.endswith(CXX_EXTENSIONS):
                result.append((ap, os.path.relpath(ap, REPO_ROOT)))
            continue
        if not os.path.isdir(ap):
            print(f"cloudfog_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
        for root, dirs, files in os.walk(ap):
            dirs[:] = sorted(d for d in dirs if not d.startswith(".") and d != "build")
            for f in sorted(files):
                if f.endswith(CXX_EXTENSIONS):
                    full = os.path.join(root, f)
                    result.append((full, os.path.relpath(full, REPO_ROOT)))
    return result


@dataclass
class FileScan:
    """Picklable per-file result: everything main() needs to merge."""
    path: str
    findings: list[Finding]
    bad_suppressions: list[Finding]
    metric_sites: list[tuple[str, int, str]]
    suppressions: dict[int, set[str]]


# Worker-process libclang handle, initialised lazily per process so the
# non-picklable cindex object never crosses the fork/pickle boundary.
_worker_cindex = None
_worker_cindex_tried = False


def scan_file(abs_path: str, rel_path: str, active: frozenset,
              want_clang: bool) -> FileScan:
    """Every single-file rule over one source. Pure function of the file
    contents (plus sibling header), so files can be scanned in any order
    or process and merged deterministically afterwards."""
    global _worker_cindex, _worker_cindex_tried
    sf = load_source(abs_path, rel_path)
    sup, bad_sup = suppressions_for(sf)

    cindex = None
    if want_clang:
        if not _worker_cindex_tried:
            _worker_cindex = try_clang_engine()
            _worker_cindex_tried = True
        cindex = _worker_cindex

    file_findings: list[Finding] = []
    if "cloudfog-wallclock" in active:
        file_findings += check_wallclock(sf)
    if "cloudfog-unordered-iter" in active or "cloudfog-pointer-key" in active:
        ast = clang_check_file(cindex, abs_path, sf.path) if cindex else None
        if ast is not None:
            file_findings += [f for f in ast if f.rule in active]
            # The AST engine covers pointer-key decls but not the sort-
            # comparator heuristic; keep the token check for those.
            if "cloudfog-pointer-key" in active:
                file_findings += [f for f in check_pointer_key(sf)
                                  if "comparator" in f.message]
        else:
            if "cloudfog-unordered-iter" in active:
                file_findings += check_unordered_iter(sf, abs_path)
            if "cloudfog-pointer-key" in active:
                file_findings += check_pointer_key(sf)
    if "cloudfog-uninit-pod" in active:
        file_findings += check_uninit_pod(sf)
    if "cloudfog-float-reduce" in active:
        file_findings += check_float_reduce_loops(sf, abs_path)
    if "cloudfog-raw-rng" in active:
        file_findings += check_raw_rng(sf)
    if "cloudfog-static-mutable" in active:
        file_findings += check_static_mutable(sf)

    sites = collect_metric_sites(sf) if "cloudfog-metric-once" in active else []
    kept = [f for f in file_findings if f.rule not in sup.get(f.line, set())]
    return FileScan(sf.path, kept, bad_sup, sites, sup)


def _scan_file_star(job: tuple) -> FileScan:
    return scan_file(*job)


def resolve_jobs(jobs: int, n_files: int) -> int:
    """0 = auto: one worker per CPU, capped at 8 (the scan is I/O-light and
    per-file cheap, more workers just pay fork cost) and at the file count."""
    if jobs == 0:
        jobs = min(8, os.cpu_count() or 1)
    return max(1, min(jobs, n_files))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="cloudfog_lint.py",
        description="CloudFog determinism & correctness lint")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories (default: src bench)")
    ap.add_argument("--rule", action="append", default=None, metavar="RULE",
                    help="run only this rule (repeatable)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--engine", choices=("auto", "token", "clang"), default="auto",
                    help="auto: libclang AST when importable, token otherwise")
    ap.add_argument("--quiet", action="store_true", help="suppress the summary line")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="scan N files in parallel (0 = auto; findings are "
                         "identical at any job count)")
    ap.add_argument("--stats", action="store_true",
                    help="print per-rule finding counts (includes zeroes)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:26s} {desc}")
        return 0

    active = set(args.rule) if args.rule else set(RULES)
    unknown = active - set(RULES)
    if unknown:
        print(f"cloudfog_lint: unknown rule(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    paths = args.paths or ["src", "bench"]
    files = gather_files(paths)
    if not files:
        print("cloudfog_lint: no C++ sources found", file=sys.stderr)
        return 2

    want_clang = args.engine in ("auto", "clang")
    cindex = try_clang_engine() if want_clang else None
    if cindex is None and args.engine == "clang":
        print("cloudfog_lint: libclang unavailable, falling back to the "
              "token engine", file=sys.stderr)
    want_clang = cindex is not None

    jobs = resolve_jobs(args.jobs, len(files))
    work = [(ap_, rp, frozenset(active), want_clang) for ap_, rp in files]
    if jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            # Merge in input order regardless of completion order, so serial
            # and parallel runs produce byte-identical output.
            scans = pool.map(_scan_file_star, work)
    else:
        # The parent already probed libclang; reuse its handle.
        global _worker_cindex, _worker_cindex_tried
        _worker_cindex, _worker_cindex_tried = cindex, True
        scans = [_scan_file_star(job) for job in work]

    findings: list[Finding] = []
    per_file_sites: dict[str, list[tuple[str, int, str]]] = {}
    suppressed: dict[str, dict[int, set[str]]] = {}
    for scan in scans:
        suppressed[scan.path] = scan.suppressions
        if "cloudfog-nolint" in active:
            findings.extend(scan.bad_suppressions)
        findings.extend(scan.findings)
        if "cloudfog-metric-once" in active:
            per_file_sites[scan.path] = scan.metric_sites

    if "cloudfog-metric-once" in active:
        findings += check_metric_once(per_file_sites, suppressed)
    if "cloudfog-unreached" in active:
        findings += check_unreached([scan.path for scan in scans], suppressed)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.format())
    if args.stats:
        counts = {rule: 0 for rule in sorted(active)}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        for rule, n in counts.items():
            print(f"cloudfog_lint: stat {rule:32s} {n}", file=sys.stderr)
    if not args.quiet:
        engine = "libclang+token" if want_clang else "token"
        status = f"{len(findings)} finding(s)" if findings else "clean"
        print(f"cloudfog_lint: {len(files)} file(s), engine={engine}, "
              f"jobs={jobs}: {status}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
