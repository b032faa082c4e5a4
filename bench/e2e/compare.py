#!/usr/bin/env python3
"""Compare two sets of gcore_e2e result files (python3 standard library only).

    python3 bench/e2e/compare.py --base P1.json P2.json ... --change C1.json C2.json ...

Each file is a results JSON written by gcore_e2e (build/e2e/results/*.json);
all must come from full-length runs (no --smoke), else the script exits 2.
Files are grouped by workload; within a workload the i-th base file and the
i-th change file form a pair, so pass them in the order they ran (alternate
which side runs first). For every (metric, workload) the script prints each
side's median and quartiles and one verdict:

  improved    at least 10 pairs, the change wins at least 9/10 of them (ties
              count for neither side) and the medians differ by more than
              the base's interquartile range;
  unresolved  the base's interquartile range exceeds the metric's bound and
              not every change run beats every base run;
  regressed   the change's median is worse than the base's by more than the
              bound (end-to-end metrics, bounds from BENCHMARK.json), or — for
              error_rate — any change run had a failed or wrong response;
  unchanged   otherwise.

Per-layer metrics have no bound: they are reported improved or regressed by
the pair rule alone, else unchanged. Metrics BENCHMARK.json does not name are
listed with their medians only. Exits 1 when any end-to-end verdict is
regressed or unresolved.
"""
import argparse
import json
import os
import statistics
import sys


def load(paths):
    by_workload = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        by_workload.setdefault(result["context"]["workload"], []).append(result)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    base_med = statistics.median(base)
    change_med = statistics.median(change)
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    gain = sign * (change_med - base_med)  # > 0: the change is better
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved"
    if bound is None:
        if len(pairs) >= 10 and losses >= 0.9 * len(pairs) and -gain > iqr:
            return "regressed"
        return "unchanged"
    scale = abs(base_med) if base_med else 1.0
    every_better = all(sign * (c - b) > 0 for b in base for c in change)
    if iqr / scale > bound and not every_better:
        return "unresolved"
    if -gain / scale > bound:
        return "regressed"
    return "unchanged"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}

    base = load(args.base)
    change = load(args.change)
    # Runs of different lengths, or smoke runs, do not compare.
    shapes = {(r["context"]["window_s"], r["context"]["smoke"])
              for side in (base, change) for runs in side.values()
              for r in runs}
    if len(shapes) != 1 or next(iter(shapes))[1]:
        print(f"result files differ in window or are smoke runs: {shapes}",
              file=sys.stderr)
        return 2
    bad = False
    row = "{:<10} {:<34} {:>8} {:>32} {:>32} {:>8}  {}"
    print(row.format("workload", "metric", "unit", "base median [q1, q3]",
                     "change median [q1, q3]", "delta", "verdict"))
    for workload in sorted(set(base) | set(change)):
        b_runs = base.get(workload, [])
        c_runs = change.get(workload, [])
        if not b_runs or not c_runs:
            print(f"{workload:<10} missing on one side")
            bad = True
            continue
        names = [n for n in b_runs[0]["metrics"] if n in c_runs[0]["metrics"]]
        for name in names:
            b = [r["metrics"][name]["value"] for r in b_runs
                 if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs
                 if name in r["metrics"]]
            unit = b_runs[0]["metrics"][name]["unit"]
            if name == "error_rate":
                failed = any(r["failed"] > 0 or not r["correct"] for r in c_runs)
                v = "regressed" if failed else "unchanged"
                bad = bad or failed
            elif name in end_to_end:
                m = end_to_end[name]
                v = verdict(b, c, m["better"], m["bound"])
                bad = bad or v in ("regressed", "unresolved")
            elif name in per_layer:
                v = verdict(b, c, per_layer[name]["better"], None)
            else:
                v = "-"
            bm, cm = statistics.median(b), statistics.median(c)
            bq, cq = quartiles(b), quartiles(c)
            delta = f"{(cm - bm) / abs(bm):+.1%}" if bm else "n/a"
            print(row.format(
                workload, name, unit,
                f"{bm:.6g} [{bq[0]:.6g}, {bq[1]:.6g}]",
                f"{cm:.6g} [{cq[0]:.6g}, {cq[1]:.6g}]", delta, v))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
