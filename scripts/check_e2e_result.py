#!/usr/bin/env python3
"""Checks the standard output of one end-to-end run.

    bench/e2e/run.sh --workload construct --seed 1 --trace 1 > out.txt
    scripts/check_e2e_result.py BENCHMARK.json out.txt

The last line of the output must be the run's JSON result, with
`correct: true` and a finite number for every `per_layer` metric that
BENCHMARK.json names. Exits non-zero, naming each problem, otherwise.
"""
import json
import math
import sys


def problems(benchmark, output):
    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        return [f"last line is not JSON ({e}): {lines[-1][:200]!r}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["result has no metrics object"]
    for metric in benchmark["per_layer"]:
        name = metric["name"]
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            found.append(f"per_layer metric {name}: {entry!r}")
    return found


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(argv[1]) as f:
        benchmark = json.load(f)
    with open(argv[2]) as f:
        output = f.read()
    found = problems(benchmark, output)
    if found:
        sys.exit(f"{argv[2]}:\n  " + "\n  ".join(found))
    print(f"{argv[2]}: correct, {len(benchmark['per_layer'])} per-layer "
          "metrics present")


if __name__ == "__main__":
    main(sys.argv)
