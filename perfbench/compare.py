#!/usr/bin/env python3
"""Compares two sets of benchmark result files against BENCHMARK.json.

  python3 perfbench/compare.py --benchmark BENCHMARK.json \\
      --base parent_results/ --change change_results/

Each side is a directory (or list) of result files written by run.py.
Runs are paired by (workload, seed). For every (workload, end-to-end
metric) it prints one row with each side's median and quartiles, the
change's win rate over the pairs, and a verdict:

  improved     at least 10 pairs, the change wins >= 9/10 of them (ties
               count for neither) and the medians differ, in the better
               direction, by more than the base's interquartile range;
  regressed    the change's median is worse than the base's by more than
               the metric's bound (a share of the base median);
  unresolved   either side's interquartile range, as a share of its
               median, is wider than the bound, and the change did not
               read better than the base on every run;
  no worse     otherwise.

Invalid runs (generator lag over the workload's limit, or a measured phase
that ended in a backlog) are left out. The exit code is 1 when any row
regressed.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_results(paths):
    """(workload, seed) -> result document, from files or directories."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(glob.glob(os.path.join(path, "*.json")))
        else:
            files.append(path)
    runs = {}
    for name in files:
        if name.endswith(".trace.json"):
            continue
        with open(name) as f:
            doc = json.load(f)
        if doc.get("trace") or not doc.get("valid", True):
            continue
        runs[(doc["workload"], doc["seed"])] = doc
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, change, better, bound):
    """Returns (verdict, wins, pairs) for paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(base)
    wins = sum(1 for a, b in zip(base, change) if sign * (b - a) > 0)
    _, base_median, _ = quartiles(base)
    _, change_median, _ = quartiles(change)
    base_q1, _, base_q3 = quartiles(base)
    gap = sign * (change_median - base_median)
    every_better = pairs > 0 and all(
        sign * (b - a) > 0 for b in change for a in base)
    significant = (pairs >= 10 and wins >= 0.9 * pairs
                   and gap > base_q3 - base_q1)
    if significant and every_better:
        return "improved", wins, pairs
    if spread(base) > bound or spread(change) > bound:
        return ("no worse" if every_better else "unresolved"), wins, pairs
    if -gap > bound * abs(base_median):
        return "regressed", wins, pairs
    if significant:
        return "improved", wins, pairs
    return "no worse", wins, pairs


def compare(benchmark, base_runs, change_runs):
    rows = []
    workloads = sorted({w for w, _ in base_runs} | {w for w, _ in change_runs})
    for workload in workloads:
        seeds = sorted(s for (w, s) in base_runs
                       if w == workload and (w, s) in change_runs)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base = [base_runs[(workload, s)]["end_to_end"][name]["value"]
                    for s in seeds]
            change = [change_runs[(workload, s)]["end_to_end"][name]["value"]
                      for s in seeds]
            if not seeds:
                rows.append((workload, name, None, None, "unresolved", 0, 0))
                continue
            result, wins, pairs = verdict(base, change, metric["better"],
                                          metric["bound"])
            rows.append((workload, name, quartiles(base), quartiles(change),
                         result, wins, pairs))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    rows = compare(benchmark, load_results(args.base),
                   load_results(args.change))
    print("%-18s %-24s %-32s %-32s %-6s %s" % (
        "workload", "metric", "base q1/median/q3", "change q1/median/q3",
        "wins", "verdict"))
    regressed = False
    for workload, name, base, change, result, wins, pairs in rows:
        fmt = lambda q: "-" if q is None else "%.4g/%.4g/%.4g" % q
        print("%-18s %-24s %-32s %-32s %-6s %s" % (
            workload, name, fmt(base), fmt(change),
            "%d/%d" % (wins, pairs), result))
        regressed |= result == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
