#!/usr/bin/env python3
"""Compares perfbench runs with a committed baseline, metric by metric.

    python3 scripts/bench_compare.py BENCH_<workload>.json RESULTS [RESULTS ...]
    python3 scripts/bench_compare.py BENCH_<workload>.json --record <parent|change>

The baseline is the "change" side of the file's paired trace-0 runs: the
code as of the commit that recorded them. A RESULTS file holds perfbench
result lines, one run per line: the last line of standard output of
`python3 perfbench/run.py --workload <workload> ... --trace 0`. Other
lines are skipped, so a saved run.py stdout works as is (or pipe it in
as /dev/stdin). `--record SIDE` takes the run from the baseline file
itself instead: its committed trace-0 record of that side.

For each end-to-end metric in BENCHMARK.json the script prints the
baseline median, the run median (over all runs given) and the relative
change, judged by the metric's `better` direction and `bound`: a metric
worse than the baseline by more than its bound is a regression. The
script only reads; it writes no file.

Exit status: 0 when no metric regressed, 1 on any regression, 2 when the
input is unusable.
"""

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def record_values(record):
    """{metric: value} of a perfbench run record (the --record file)."""
    return {row["metric"]: row["value"]
            for row in record["rows"] if "metric" in row}


def result_values(result):
    """{metric: value} of a perfbench result line."""
    return {name: m["value"] for name, m in result["metrics"].items()}


def read_results(path):
    runs = []
    with open(path) as stream:
        for line in stream:
            try:
                result = json.loads(line)
            except ValueError:
                continue
            if isinstance(result, dict) and "metrics" in result:
                runs.append(result_values(result))
    return runs


def relative_change(base, run):
    if base == 0:
        return 0.0 if run == 0 else math.copysign(math.inf, run)
    return (run - base) / abs(base)


def compare(baseline_runs, runs, metrics):
    """Prints the table; returns the names of the regressed metrics."""
    print("%-16s %-6s %-7s %6s %14s %14s %9s  %s"
          % ("metric", "unit", "better", "bound", "baseline", "run",
             "change", "verdict"))
    regressed = []
    for m in metrics:
        name = m["name"]
        base_values = [r[name] for r in baseline_runs if name in r]
        run_values = [r[name] for r in runs if name in r]
        if not base_values or not run_values:
            print("%-16s missing from the %s" % (
                name, "baseline" if not base_values else "runs"))
            regressed.append(name)
            continue
        base = statistics.median(base_values)
        run = statistics.median(run_values)
        change = relative_change(base, run)
        worse = change > m["bound"] if m["better"] == "lower" \
            else change < -m["bound"]
        if worse:
            regressed.append(name)
        print("%-16s %-6s %-7s %5.0f%% %14.6g %14.6g %+8.1f%%  %s"
              % (name, m["unit"], m["better"], 100 * m["bound"], base, run,
                 100 * change, "REGRESSION" if worse else "ok"))
    return regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", help="a committed BENCH_<workload>.json")
    parser.add_argument("results", nargs="*",
                        help="files of perfbench result lines")
    parser.add_argument("--record", choices=("parent", "change"),
                        help="compare the baseline file's own trace-0 "
                             "record of this side")
    args = parser.parse_args()
    if bool(args.results) == bool(args.record):
        parser.error("give RESULTS files or --record, not both or neither")

    with open(args.baseline) as f:
        baseline = json.load(f)
    baseline_runs = [pair["change"] for pair in baseline["pairs"]["trace0"]]
    if args.record:
        runs = [record_values(baseline["records"][args.record]["trace0"])]
    else:
        runs = [run for path in args.results for run in read_results(path)]
    if not runs:
        print("bench_compare: no perfbench result lines in the input",
              file=sys.stderr)
        return 2

    print("workload %s: baseline = median of %d committed runs, "
          "run = median of %d" % (baseline["workload"], len(baseline_runs),
                                  len(runs)))
    regressed = compare(baseline_runs, runs, end_to_end_metrics())
    if regressed:
        print("regressed beyond bound: %s" % ", ".join(regressed))
        return 1
    print("no metric regressed beyond its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
