#!/usr/bin/env python3
"""Build and run the end-to-end DCART benchmark on one workload.

    python3 bench/e2e/run.py --workload ipgeo-hot [--seed 42] [--seconds 10]
                             [--trace 0|1] [--keep DIR]

Builds dcart_bench into $CARGO_TARGET_DIR, or .bench_build, at the
repository root (configuring bench/e2e there, Release, unless that directory
already holds a CMake build tree), runs it for --seconds of measured call
time, checks its result and prints every metric by name with its unit.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: with --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list (a traced run).  The full
result (every metric, provenance, per-layer self times) is written to
<build>/result-<workload>.json and, with --keep, copied into DIR for
compare.py; a traced run also leaves its Chrome trace in
<build>/trace-<workload>.json.

Exit status: 0 when the run verified and every metric is present, finite
and in its unit; 1 when it did not; 2 when the sources are missing or the
build failed (nothing is printed on stdout then).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_TIMEOUT_S = 170


def fail_setup(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                     str(build_dir), "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail_setup("cmake configure failed")
    compile_ = ["cmake", "--build", str(build_dir), "--target", "dcart_bench",
                "-j", str(os.cpu_count() or 1)]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail_setup("build failed")
    return build_dir / "dcart_bench"


def git(*args):
    if not (ROOT / ".git").exists():
        return None  # not a checkout; never report an enclosing repository
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    """Commit and dirty flag when the tree is a git checkout (None when it is
    not), and a digest of the sources either way."""
    digest = hashlib.sha256()
    for directory in ("src", "bench/e2e"):
        for path in sorted((ROOT / directory).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else status != "",
            "source_sha256": digest.hexdigest()}


def check_metrics(result, specs):
    """The listed metrics, and a problem line for each that is missing,
    non-finite or in another unit."""
    metrics, problems = {}, []
    for spec in specs:
        got = result.get("metrics", {}).get(spec["name"])
        if got is None:
            problems.append(f"{spec['name']}: missing")
        elif not math.isfinite(got["value"]):
            problems.append(f"{spec['name']}: not finite")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: unit {got['unit']!r}, "
                            f"expected {spec['unit']!r}")
        else:
            metrics[spec["name"]] = got
    return metrics, problems


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", type=Path)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup(f"no DCART sources under {ROOT}; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    tmp = build_dir / "tmp"  # durable homes; a killed run leaves its own here
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    result_path = build_dir / f"result-{args.workload}.json"
    trace_path = build_dir / f"trace-{args.workload}.json"
    result_path.unlink(missing_ok=True)
    trace_path.unlink(missing_ok=True)

    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--json={result_path}"]
    if args.trace:
        command.append(f"--trace={trace_path}")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, env={**os.environ, "TMPDIR": str(tmp)},
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: dcart_bench exceeded {BENCH_TIMEOUT_S} s",
              file=sys.stderr)
        sys.exit(1)
    if not result_path.is_file():
        print(f"run.py: dcart_bench exited {done.returncode} without a result",
              file=sys.stderr)
        sys.exit(1)

    result = json.loads(result_path.read_text())
    result["provenance"].update(provenance())
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        shutil.copy(result_path, args.keep /
                    f"{args.workload}-{args.seed}-{time.time_ns()}.json")

    specs = config["per_layer" if args.trace else "end_to_end"]
    metrics, problems = check_metrics(result, specs)
    if args.trace:
        try:
            events = json.loads(trace_path.read_text())["traceEvents"]
            print(f"trace: {len(events)} events in {trace_path}")
        except (OSError, ValueError, KeyError) as error:
            problems.append(f"trace {trace_path}: {error}")
    for name, metric in metrics.items():
        print(f"{name:28} {metric['value']:14.6g} {metric['unit']}")
    prov = result["provenance"]
    print("provenance: " + ", ".join(f"{k}={prov[k]}" for k in sorted(prov)))
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)

    correct = (done.returncode == 0 and result["correct"] and not problems
               and result["failed"] == 0)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
