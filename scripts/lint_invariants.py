#!/usr/bin/env python3
"""Project-invariant linter: repo-specific rules no generic tool knows.

Rules (each suppressible per line with `// lint:allow(<rule>) <why>` on the
offending line or the line directly above; a justification is required):

  kd-builder         std::nth_element / hand-rolled kd partitioning is
                     forbidden in src/ outside src/spatial/ — spatial query
                     structures live in the flat spatial core (PR 5 rule).
  relaxed-contract   every std::memory_order_relaxed use must sit within
                     two code lines of a `// relaxed:` contract comment
                     saying why relaxed ordering is sufficient (comment-only
                     lines in between are free; contiguous relaxed clusters
                     are covered by one comment via the lines between them).
  trace-thread-local thread_local is forbidden in src/ — trace context is
                     value-threaded through call chains (PR 7 rule); the
                     only sanctioned use is the metrics counter-slab shard
                     id, which carries an inline allow.
  deterministic-rng  rand()/srand()/time()-seeding and default-constructed
                     std RNG engines are forbidden in src/ — deterministic
                     kernels take explicit seeds (Engine::Config::seed).
  naked-mutex        std::mutex / std::shared_mutex / std::condition_variable
                     and the std lock RAII types are forbidden in src/
                     outside src/util/thread_annotations.h — use the
                     annotated unn::Mutex family so -Wthread-safety sees
                     every lock.
  quant-tree-owner   constructing a core::QuantTree is forbidden in src/
                     outside src/engine/engine.cc — an Engine builds the one
                     tree over its points (Engine::GetQuantTree) and every
                     structure that needs one borrows it, so none can grow a
                     private copy that StructuresBuilt does not see.
  doc-ref            a `*.md` path named in a comment must exist, read
                     relative to the repo root — a header that cites a
                     missing document sends its reader nowhere.

Exit status: 0 when clean, 1 with one `file:line: [rule] message` per
violation otherwise. Run over the default src/ tree or over explicit file
arguments (the negative-compile suite feeds single files through it).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

WRAPPER_HEADER = "src/util/thread_annotations.h"
QUANT_TREE_OWNER = "src/engine/engine.cc"

ALLOW_RE = re.compile(r"//\s*lint:allow\((?P<rules>[a-z0-9_,\- ]+)\)\s*(?P<why>.*)")
COMMENT_ONLY_RE = re.compile(r"^\s*(//|///|/\*|\*)")

NAKED_MUTEX_RE = re.compile(
    r"std::(recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std::condition_variable(_any)?\b"
    r"|std::(lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)
KD_BUILDER_RE = re.compile(r"\bstd::nth_element\b")
THREAD_LOCAL_RE = re.compile(r"\bthread_local\b")
RNG_RE = re.compile(
    r"(?<![\w:])(rand|srand)\s*\("  # C rand()/srand()
    r"|(?<![\w:])time\s*\(\s*(NULL|nullptr|0|&|\))"  # time(NULL) seeding
    r"|std::random_device\b"
    r"|std::(mt19937(_64)?|minstd_rand0?|default_random_engine)\s+\w+\s*;"
)
# A QuantTree made by make_unique/make_shared, by new, as a named object
# (`QuantTree tree(&pts);`, a by-value member), or as a temporary; not a
# reference, pointer, the class head or its own constructor declarations.
_QT = r"(?:(?:unn::)?core::)?QuantTree"
QUANT_TREE_RE = re.compile(
    r"\bmake_(?:unique|shared)\s*<\s*" + _QT + r"\s*>"
    r"|\bnew\s+" + _QT + r"\b"
    r"|(?<![\w:~])" + _QT + r"\s+\w+\s*[({;=]"
    r"|(?<![\w:~])(?<!class )" + _QT + r"\s*[({](?!\s*(?:const\b|\)))"
)
# A markdown path inside a comment: `docs/ARCHITECTURE.md`, `README.md`.
DOC_REF_RE = re.compile(r"(?<![\w./-])([\w./-]+\.md)\b")
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_COMMENT_RE = re.compile(r"//\s*relaxed:")

# How many non-comment lines above a relaxed use the contract comment (or a
# covered relaxed line, for clusters) may sit.
RELAXED_WINDOW = 2


def is_comment_only(line: str) -> bool:
    stripped = line.strip()
    return not stripped or bool(COMMENT_ONLY_RE.match(line))


def allow_markers(lines: list[str], idx: int) -> list[tuple[int, set[str], str]]:
    """Allow markers covering line `idx` (0-based): on the line itself or
    anywhere in the contiguous comment block directly above it. Returns
    (line index, rules, justification) per marker."""
    found: list[tuple[int, set[str], str]] = []
    j = idx
    while j >= 0:
        m = ALLOW_RE.search(lines[j])
        if m:
            found.append((j,
                          {r.strip() for r in m.group("rules").split(",")},
                          m.group("why").strip()))
        j -= 1
        if j < 0 or not is_comment_only(lines[j]):
            break
    return found


def allowed_rules(lines: list[str], idx: int) -> set[str]:
    rules: set[str] = set()
    for _, marker_rules, _ in allow_markers(lines, idx):
        rules.update(marker_rules)
    return rules


def check_relaxed_contract(lines: list[str]) -> list[tuple[int, str]]:
    """Every memory_order_relaxed within RELAXED_WINDOW code lines of a
    `// relaxed:` comment. Comment-only lines don't consume the window, and
    a covered relaxed line extends coverage (clusters share one comment)."""
    violations: list[tuple[int, str]] = []
    covered: set[int] = set()
    for i, line in enumerate(lines):
        if is_comment_only(line) or not RELAXED_RE.search(line):
            continue
        if RELAXED_COMMENT_RE.search(line):
            covered.add(i)
            continue
        ok = False
        budget = RELAXED_WINDOW
        j = i - 1
        while j >= 0 and budget >= 0:
            if RELAXED_COMMENT_RE.search(lines[j]) or j in covered:
                ok = True
                break
            if not is_comment_only(lines[j]):
                budget -= 1
            j -= 1
        if ok:
            covered.add(i)
        else:
            violations.append(
                (i + 1,
                 "memory_order_relaxed without a nearby '// relaxed:' "
                 "contract comment (within %d code lines above)"
                 % RELAXED_WINDOW))
    return violations


def comment_text(line: str) -> str:
    """The comment part of a line: all of a comment-only line, else what
    follows a `//` (string literals are not parsed; none in src/ holds
    `//` before a `.md` path)."""
    if COMMENT_ONLY_RE.match(line):
        return line
    cut = line.find("//")
    return line[cut:] if cut >= 0 else ""


def lint_file(path: pathlib.Path, repo_rel: str) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [f"{repo_rel}: [io] unreadable: {e}"]
    lines = text.splitlines()
    problems: list[str] = []

    def report(idx0: int, rule: str, msg: str) -> None:
        for j, marker_rules, why in allow_markers(lines, idx0):
            if rule in marker_rules:
                if not why:
                    # A bare allow with no justification is a violation.
                    problems.append(
                        f"{repo_rel}:{j + 1}: [{rule}] lint:allow "
                        "needs a justification after the marker")
                return
        problems.append(f"{repo_rel}:{idx0 + 1}: [{rule}] {msg}")

    in_spatial = repo_rel.startswith("src/spatial/")
    is_wrapper = repo_rel == WRAPPER_HEADER
    is_tree_owner = repo_rel == QUANT_TREE_OWNER

    for i, line in enumerate(lines):
        for ref in DOC_REF_RE.findall(comment_text(line)):
            if not (REPO_ROOT / ref).is_file():
                report(i, "doc-ref",
                       f"{ref} does not exist — cite a document in the "
                       "repo by its path from the repo root, or state the "
                       "note inline")
        if is_comment_only(line):
            continue  # Prose mentions of forbidden constructs are fine.
        if KD_BUILDER_RE.search(line) and not in_spatial:
            report(i, "kd-builder",
                   "std::nth_element outside src/spatial/ — spatial "
                   "partitioning belongs to the flat spatial core (PR 5)")
        if THREAD_LOCAL_RE.search(line):
            report(i, "trace-thread-local",
                   "thread_local in src/ — thread trace/context state is "
                   "value-threaded, not thread-local (PR 7)")
        if RNG_RE.search(line):
            report(i, "deterministic-rng",
                   "unseeded/wall-clock randomness in src/ — deterministic "
                   "kernels take explicit seeds (Engine::Config::seed)")
        if NAKED_MUTEX_RE.search(line) and not is_wrapper:
            report(i, "naked-mutex",
                   "naked std synchronization type — use the annotated "
                   "unn::Mutex family (src/util/thread_annotations.h)")
        if QUANT_TREE_RE.search(line) and not is_tree_owner:
            report(i, "quant-tree-owner",
                   "core::QuantTree constructed outside "
                   "src/engine/engine.cc — borrow the Engine's tree "
                   "(Engine::GetQuantTree) instead of building another")

    for lineno, msg in check_relaxed_contract(lines):
        idx0 = lineno - 1
        allows = allowed_rules(lines, idx0)
        if "relaxed-contract" not in allows:
            problems.append(f"{repo_rel}:{lineno}: [relaxed-contract] {msg}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*",
        help="files to lint (default: every .h/.cc under src/)")
    args = parser.parse_args()

    if args.files:
        paths = [pathlib.Path(f).resolve() for f in args.files]
    else:
        paths = sorted(p for p in SRC_ROOT.rglob("*")
                       if p.suffix in (".h", ".cc"))

    all_problems: list[str] = []
    for path in paths:
        try:
            repo_rel = str(path.relative_to(REPO_ROOT))
        except ValueError:
            repo_rel = str(path)
        all_problems.extend(lint_file(path, repo_rel.replace("\\", "/")))

    for p in all_problems:
        print(p)
    if all_problems:
        print(f"lint_invariants: {len(all_problems)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"lint_invariants: OK ({len(paths)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
