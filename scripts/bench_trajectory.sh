#!/usr/bin/env bash
# Performance-trajectory baseline: run the modeled headline bench
# (fig9_performance, every engine on every workload) through its
# --metrics-json exporter and wrap the snapshot into one dated
# BENCH_<date>.json for committing at the repo root.
#
#   scripts/bench_trajectory.sh [build-dir] [out-file]
#
# The committed series (BENCH_2026-08-08.json, BENCH_<next>.json, ...) is
# the repo's performance trajectory: diffing two files shows how the
# modeled fig9 numbers moved between checkpoints, and
# scripts/check_bench_regression.py gates a fresh file against the newest
# one.  The scale is fixed here so the files stay comparable.  Each
# snapshot records the machine, the UTC time of the run, the commit and
# dirty flag of the tree that produced it, and the build type and SIMD
# switch (DCART_SIMD) of the build directory's CMakeCache.txt.  Wall-clock numbers are not
# recorded here: they move with the host, and bench/e2e measures them with
# interleaved repeats.
#
# The modeled simulators key their cache and HBM models on real heap
# addresses, so address-space randomization moves the modeled series a
# little between two runs of one binary.  The modeled bench therefore runs
# with ASLR off (setarch -R) when a probe shows the host allows it, and
# normally otherwise; "aslr_disabled" in the snapshot records which.
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
OUT_FILE="${2:-${REPO_DIR}/BENCH_$(date +%F).json}"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

# Fixed scale: large enough that the CTT pipeline actually fills, small
# enough that the whole run stays under a minute on a laptop.
FIG9_SCALE="--keys=20000 --ops=60000"

NO_ASLR=()
if setarch "$(uname -m)" -R true 2> /dev/null; then
  NO_ASLR=(setarch "$(uname -m)" -R)
fi

echo "== fig9_performance (modeled, all engines x all workloads) =="
"${NO_ASLR[@]}" "${BUILD_DIR}/bench/fig9_performance" ${FIG9_SCALE} \
    --metrics-json="${TMP_DIR}/fig9.json" > /dev/null

echo "== validating snapshot =="
python3 "${REPO_DIR}/scripts/check_metrics_json.py" "${TMP_DIR}/fig9.json"

echo "== writing -> ${OUT_FILE} =="
python3 - "${TMP_DIR}/fig9.json" "${OUT_FILE}" "${REPO_DIR}" \
    "${#NO_ASLR[@]}" "${BUILD_DIR}/CMakeCache.txt" <<'PY'
import datetime
import json
import platform
import subprocess
import sys

fig9_path, out_path, repo_dir = sys.argv[1:4]
aslr_disabled = sys.argv[4] != "0"
cache_path = sys.argv[5]


def load(path):
    with open(path) as f:
        return json.load(f)


def git(*args):
    try:
        return subprocess.check_output(("git", "-C", repo_dir, *args),
                                       text=True,
                                       stderr=subprocess.DEVNULL).strip()
    except Exception:  # not a checkout / git missing: still emit a baseline
        return None


def cmake_cache(name):
    try:
        with open(cache_path) as f:
            for line in f:
                key, _, value = line.rstrip("\n").partition("=")
                if key.split(":")[0] == name:
                    return value
    except OSError:
        pass
    return None


snapshots = {"fig9_performance": load(fig9_path)}
build_type = cmake_cache("CMAKE_BUILD_TYPE")
if build_type == "":
    build_type = "RelWithDebInfo"  # the root CMakeLists.txt default
status = git("status", "--porcelain", "--untracked-files=no")
merged = {
    "baseline_version": 1,
    "date": datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"),
    "commit": git("rev-parse", "HEAD") or "",
    "dirty": None if status is None else status != "",
    "aslr_disabled": aslr_disabled,
    "build_type": build_type,
    "dcart_simd": cmake_cache("DCART_SIMD"),
    "machine": {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    },
    "benches": snapshots,
}
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1, sort_keys=True)
    f.write("\n")

runs = sum(len(s.get("runs", [])) for s in snapshots.values())
print(f"wrote {out_path}: {runs} runs across {len(snapshots)} benches")
PY
