#!/usr/bin/env python3
"""Checks the standard output of one end-to-end run.

    bench/e2e/run.sh --workload construct --seed 1 --trace 1 > out.txt
    scripts/check_e2e_result.py BENCHMARK.json out.txt

The last line of the output must be the run's JSON result, with
`correct: true` and a finite number for every metric of one group that
BENCHMARK.json names: `per_layer` when the line names any per-layer
metric (a --trace 1 run reports only those), `end_to_end` otherwise (a
--trace 0 or --smoke run reports only those). The groups share no name,
so a traced line that lost every per-layer metric fails the end-to-end
check. Exits non-zero, naming each problem, otherwise.
"""
import json
import math
import sys


def problems(benchmark, output):
    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        return [f"last line is not JSON ({e}): {lines[-1][:200]!r}"], None
    if not isinstance(result, dict):
        return ["last line is not a JSON object"], None
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["result has no metrics object"], None
    traced = any(m["name"] in metrics for m in benchmark["per_layer"])
    group = "per_layer" if traced else "end_to_end"
    for metric in benchmark[group]:
        name = metric["name"]
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            found.append(f"{group} metric {name}: {entry!r}")
    return found, group


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(argv[1]) as f:
        benchmark = json.load(f)
    with open(argv[2]) as f:
        output = f.read()
    found, group = problems(benchmark, output)
    if found:
        sys.exit(f"{argv[2]}:\n  " + "\n  ".join(found))
    print(f"{argv[2]}: correct, {len(benchmark[group])} {group} metrics "
          "present")


if __name__ == "__main__":
    main(sys.argv)
