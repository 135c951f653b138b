#!/usr/bin/env python3
"""Extract fenced ```cpp blocks from markdown into one compilable file.

Every ```cpp block in the given markdown files becomes the body of its own
function in the generated translation unit, so documentation code cannot
rot: the CMake `doc_snippets` target (and the CI docs job) compiles the
output against the library headers.

Snippet contract (documented here, relied on by README.md and docs/*.md):
  * the file is compiled with `using namespace unn;`, so both `Engine`
    and `unn::Engine` spellings work;
  * each snippet body is wrapped in its own scope whose enclosing scope
    pre-declares the common inputs `points`, `new_points`, `queries`,
    `q`, `cfg` and `spec` — a snippet may use them without defining them,
    or shadow them with its own definitions;
  * blocks are compiled, not run: they must compile warning-clean under
    -Wall (unused-variable warnings are disabled), nothing more;
  * a block preceded (within two lines) by an HTML comment containing
    `docs-smoke: skip` is left out.

Usage: extract_doc_snippets.py -o OUT.cc FILE.md [FILE.md ...]
"""

import argparse
import pathlib
import re
import sys

PREAMBLE = """\
// Generated by scripts/extract_doc_snippets.py — do not edit.
// One function per fenced ```cpp block from the markdown sources; the
// doc_snippets CMake target compiles (but never runs) this file.

#include <cstdio>
#include <vector>

#include "engine/engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/parallel.h"
#include "serve/query_server.h"
#include "serve/shard_merge.h"
#include "serve/sharding.h"
#include "serve/thread_pool.h"
#include "workload/generators.h"

using namespace unn;  // NOLINT: snippet readability.

namespace {
std::vector<core::UncertainPoint> DocPoints() {
  return workload::RandomDiscrete(8, 2, /*seed=*/7);
}
}  // namespace
"""

SNIPPET_TEMPLATE = """\

// {source}:{line}
void {name}() {{
  std::vector<core::UncertainPoint> points = DocPoints();
  std::vector<core::UncertainPoint> new_points = DocPoints();
  std::vector<geom::Vec2> queries = {{{{0.0, 0.0}}, {{1.0, -1.0}}}};
  geom::Vec2 q{{0.25, -0.5}};
  Engine::Config cfg;
  Engine::QuerySpec spec;
  (void)points, (void)new_points, (void)queries, (void)q, (void)cfg,
      (void)spec;
  {{
{body}
  }}
}}
"""


def extract_blocks(path):
    """Yields (start_line, [lines]) for each compiled ```cpp block."""
    lines = path.read_text().splitlines()
    in_block = False
    block, start = [], 0
    skip_next = False
    for i, line in enumerate(lines, 1):
        stripped = line.strip()
        if in_block:
            if stripped.startswith("```"):
                in_block = False
                yield start, block
            else:
                block.append(line)
            continue
        if stripped.startswith("```"):
            lang = stripped[3:].strip().lower()
            if lang in ("cpp", "c++") and not skip_next:
                in_block, block, start = True, [], i
            skip_next = False
        elif "docs-smoke: skip" in stripped:
            skip_next = True
        elif stripped:
            skip_next = False  # Marker applies only to the next block.


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", required=True)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    out = [PREAMBLE]
    count = 0
    for name in args.files:
        path = pathlib.Path(name)
        for start, block in extract_blocks(path):
            body = "\n".join("    " + b if b.strip() else "" for b in block)
            out.append(
                SNIPPET_TEMPLATE.format(
                    source=path.name,
                    line=start,
                    name=f"DocSnippet{count}",
                    body=body,
                )
            )
            count += 1

    pathlib.Path(args.output).write_text("".join(out))
    print(f"extract_doc_snippets: {count} snippet(s) -> {args.output}")
    if count == 0:
        print("extract_doc_snippets: warning: no ```cpp blocks found",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
