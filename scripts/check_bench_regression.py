#!/usr/bin/env python3
"""Compare a fresh bench_trajectory.sh snapshot against the committed baseline.

The repo root carries dated BENCH_<date>.json trajectory files (written by
scripts/bench_trajectory.sh).  This script takes a freshly produced snapshot,
picks the newest committed baseline, lines the two up series-by-series, and
fails when any pinned series lost more than --threshold (default 15%) of its
throughput.

A series is one (bench, engine, workload) triple, e.g.
(fig9_performance, SMART, IPGEO), compared on throughput_ops_per_sec.

Pinned series are the modeled ones ("wallclock": false): they are
deterministic for a given code state, so a 15% drop is a real regression in
the modeled cost, not host noise.  A wallclock series in either file moves
with the machine, so it is reported for the record and never gates.  Older
baselines carry wallclock_ctt and ipgeo_cluster series, which
bench_trajectory.sh no longer records; they report as missing-in-fresh,
which is no failure.

Usage:
  scripts/check_bench_regression.py --fresh FRESH.json
      [--baseline BENCH_X.json] [--threshold 0.15] [--report OUT.json]

Exit codes: 0 ok, 1 regression found, 2 bad input.
"""

import argparse
import glob
import json
import os
import sys


def fail(msg):
    print(f"check_bench_regression: {msg}", file=sys.stderr)
    sys.exit(2)


def newest_baseline(repo_root):
    candidates = sorted(glob.glob(os.path.join(repo_root, "BENCH_*.json")))
    if not candidates:
        fail(f"no BENCH_*.json baseline found in {repo_root}")
    return candidates[-1]  # dated names sort chronologically


def load_series(path):
    """-> {(bench, engine, workload): {"throughput": float, "wallclock": bool}}"""
    try:
        with open(path) as f:
            snapshot = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot load {path}: {err}")
    benches = snapshot.get("benches")
    if not isinstance(benches, dict):
        fail(f"{path}: missing 'benches' object (not a bench_trajectory file?)")
    series = {}
    for bench, snap in benches.items():
        for run in snap.get("runs", []):
            key = (bench, run.get("engine", "?"), run.get("workload", "?"))
            if key in series:
                fail(f"{path}: duplicate series {key}")
            series[key] = {
                "throughput": float(run.get("throughput_ops_per_sec", 0.0)),
                "wallclock": bool(run.get("wallclock", False)),
            }
    if not series:
        fail(f"{path}: no runs in any bench")
    return series


def main():
    parser = argparse.ArgumentParser(
        description="Fail on >threshold throughput regression vs the "
        "newest committed BENCH_*.json.")
    parser.add_argument("--fresh", required=True,
                        help="snapshot from a fresh bench_trajectory.sh run")
    parser.add_argument("--baseline",
                        help="baseline file (default: newest BENCH_*.json "
                        "at the repo root)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional throughput drop "
                        "(default 0.15)")
    parser.add_argument("--report",
                        help="write the full comparison as JSON (CI artifact)")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_path = args.baseline or newest_baseline(repo_root)
    baseline = load_series(baseline_path)
    fresh = load_series(args.fresh)

    rows = []
    regressions = []
    for key in sorted(baseline):
        name = "/".join(key)
        if key not in fresh:
            # A removed engine or workload is a trajectory change worth
            # seeing in the artifact, but not a throughput regression.
            rows.append({"series": name, "status": "missing-in-fresh"})
            continue
        base = baseline[key]["throughput"]
        now = fresh[key]["throughput"]
        pinned = not baseline[key]["wallclock"]
        delta = (now - base) / base if base > 0 else 0.0
        regressed = pinned and base > 0 and delta < -args.threshold
        rows.append({
            "series": name,
            "status": "regressed" if regressed else "ok",
            "pinned": pinned,
            "wallclock": baseline[key]["wallclock"],
            "baseline_ops_per_sec": base,
            "fresh_ops_per_sec": now,
            "delta_pct": round(delta * 100.0, 2),
        })
        if regressed:
            regressions.append(rows[-1])
    for key in sorted(set(fresh) - set(baseline)):
        rows.append({"series": "/".join(key), "status": "new-in-fresh"})

    report = {
        "baseline_file": os.path.basename(baseline_path),
        "fresh_file": os.path.basename(args.fresh),
        "threshold_pct": args.threshold * 100.0,
        "series": rows,
        "regressions": len(regressions),
    }
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")

    print(f"baseline: {baseline_path}")
    print(f"fresh:    {args.fresh}")
    width = max((len(r["series"]) for r in rows), default=10)
    for r in rows:
        if "delta_pct" in r:
            gate = "pinned" if r["pinned"] else "info  "
            print(f"  {r['series']:<{width}}  {gate}  "
                  f"{r['baseline_ops_per_sec']:>14.0f} -> "
                  f"{r['fresh_ops_per_sec']:>14.0f}  "
                  f"{r['delta_pct']:+7.2f}%  {r['status']}")
        else:
            print(f"  {r['series']:<{width}}  {r['status']}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} series regressed more than "
              f"{args.threshold * 100:.0f}%:")
        for r in regressions:
            print(f"  {r['series']}: {r['delta_pct']:+.2f}%")
        return 1
    print(f"\nOK: no pinned series regressed more than "
          f"{args.threshold * 100:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
