#!/usr/bin/env python3
"""Validate a --metrics-json snapshot against the v2 schema.

Usage: check_metrics_json.py <metrics.json> [--min-runs=N]

Exits 0 when the file parses and every required field is present with the
right type; exits 1 with one line per defect otherwise.  Kept in lockstep
with obs/export.cpp (kMetricsSchemaVersion); bump both together.
"""
import json
import sys

SCHEMA_VERSION = 2

# Field name -> accepted python types.  Bool is checked before int (bool is
# a subclass of int in python).
RUN_FIELDS = {
    "workload": str,
    "engine": str,
    "platform": str,
    "wallclock": bool,
    "seconds": (int, float),
    "throughput_ops_per_sec": (int, float),
    "energy_joules": (int, float),
    "reads_hit": int,
    "events": dict,
    "phase_seconds": dict,
    "latency_ns": dict,
    "faults": dict,
}

# The OpStats X-macro, mirrored; a field added there must land here too (the
# obs_test pins the C++ side, this pins the consumers' contract).
EVENT_FIELDS = [
    "operations", "partial_key_matches", "nodes_visited", "leaf_accesses",
    "lock_acquisitions", "lock_contentions", "atomic_ops",
    "offchip_accesses", "offchip_bytes", "useful_bytes", "onchip_hits",
    "scan_entries", "combined_ops", "shortcut_hits", "shortcut_misses",
    "shortcut_invalidations",
]

PHASE_FIELDS = ["combine", "traverse", "trigger", "other"]
LATENCY_FIELDS = ["count", "mean", "min", "p50", "p90", "p99", "max"]
FAULT_FIELDS = [
    "status_ok", "status_message", "invariant_breaches", "ops_acknowledged",
]


def check(condition, errors, message):
    if not condition:
        errors.append(message)


def validate(doc, min_runs):
    errors = []
    check(doc.get("schema_version") == SCHEMA_VERSION, errors,
          f"schema_version must be {SCHEMA_VERSION}, got "
          f"{doc.get('schema_version')!r}")
    check(isinstance(doc.get("bench"), str) and doc.get("bench"), errors,
          "bench must be a non-empty string")
    check(isinstance(doc.get("config"), dict), errors,
          "config must be an object")

    runs = doc.get("runs")
    if not isinstance(runs, list):
        errors.append("runs must be an array")
        runs = []
    check(len(runs) >= min_runs, errors,
          f"expected at least {min_runs} runs, found {len(runs)}")

    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        for field, types in RUN_FIELDS.items():
            if field not in run:
                errors.append(f"{where}: missing field {field!r}")
                continue
            value = run[field]
            if types is int and isinstance(value, bool):
                errors.append(f"{where}.{field}: bool where int expected")
            elif not isinstance(value, types):
                errors.append(
                    f"{where}.{field}: {type(value).__name__} where "
                    f"{types} expected")
        for field in EVENT_FIELDS:
            check(field in run.get("events", {}), errors,
                  f"{where}.events: missing counter {field!r}")
        for field in PHASE_FIELDS:
            check(field in run.get("phase_seconds", {}), errors,
                  f"{where}.phase_seconds: missing phase {field!r}")
        for field in LATENCY_FIELDS:
            check(field in run.get("latency_ns", {}), errors,
                  f"{where}.latency_ns: missing field {field!r}")
        for field in FAULT_FIELDS:
            check(field in run.get("faults", {}), errors,
                  f"{where}.faults: missing field {field!r}")

    registry = doc.get("registry")
    if registry is not None:
        for section in ("counters", "gauges", "histograms"):
            check(isinstance(registry.get(section), dict), errors,
                  f"registry.{section} must be an object")
        for name, value in registry.get("counters", {}).items():
            check(isinstance(value, int) and not isinstance(value, bool),
                  errors, f"registry.counters[{name!r}] must be an integer")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = argv[1]
    min_runs = 1
    for arg in argv[2:]:
        if arg.startswith("--min-runs="):
            min_runs = int(arg.split("=", 1)[1])
        else:
            print(f"unknown argument: {arg}", file=sys.stderr)
            return 2
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: {e}", file=sys.stderr)
        return 1
    errors = validate(doc, min_runs)
    for error in errors:
        print(f"{path}: {error}", file=sys.stderr)
    if not errors:
        print(f"{path}: OK ({len(doc.get('runs', []))} runs, "
              f"{len(doc.get('registry', {}).get('counters', {}))} "
              f"registry counters)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
