#!/usr/bin/env python3
"""A/B comparison of end-to-end benchmark results.

    python3 bench/e2e/compare.py A_DIR B_DIR

Each directory holds result files written by `run.py --keep DIR` (or
run.sh).  Per workload and metric this prints each side's median and
quartiles and the fraction of run pairs B won (the i-th runs of each side
are paired, in file-name order, which is run order; ties count for
neither).  Verdicts:

  improved    B won at least 9/10 of the pairs and the medians differ by
              more than A's interquartile range
  regressed   B's median is worse than A's by more than the bound, however
              wide the spread
  unresolved  A's or B's interquartile range, as a share of its median, is
              wider than the bound, and not every B run beats every A run
  unchanged   otherwise

The last three need a bound, so a per-layer metric is either improved or
"-".  Exit status is 1 when any end-to-end metric regressed.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory):
    """{workload: [result, ...]} in run order."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        runs[result["workload"]["name"]].append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a, b, higher, bound):
    (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    won = sum((y > x) if higher else (y < x) for x, y in pairs) / len(pairs)
    if won >= 0.9 and abs(b_med - a_med) > a_q3 - a_q1:
        return won, "improved"
    if bound is None:
        return won, "-"
    worse = (a_med - b_med) / a_med if higher else (b_med - a_med) / a_med
    if worse > bound:
        return won, "regressed"
    b_always_better = (min(b) > max(a)) if higher else (max(b) < min(a))
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound and not b_always_better:
        return won, "unresolved"
    return won, "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    for workload in sorted(set(side_a) & set(side_b)):
        runs_a, runs_b = side_a[workload], side_b[workload]
        print(f"== {workload}: {len(runs_a)} A runs, {len(runs_b)} B runs")
        print(f"{'metric':28} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'B won':>6}  verdict")
        for spec in config["end_to_end"] + config["per_layer"]:
            name = spec["name"]
            a = [r["metrics"][name]["value"] for r in runs_a
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in runs_b
                 if name in r["metrics"]]
            if not a or not b:
                continue
            won, result = verdict(a, b, spec["better"] == "higher",
                                  spec.get("bound"))
            regressed |= result == "regressed"
            cells = ["{:.4g} [{:.4g}, {:.4g}]".format(m, q1, q3)
                     for q1, m, q3 in (quartiles(a), quartiles(b))]
            print(f"{name:28} {cells[0]:>34} {cells[1]:>34} {won:6.2f}  "
                  f"{result}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
