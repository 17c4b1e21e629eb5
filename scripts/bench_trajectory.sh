#!/usr/bin/env bash
# Performance-trajectory baseline: run the two headline benches (plus the
# info-only sharded-cluster demo) through their --metrics-json exporters
# and fold the snapshots into one dated BENCH_<date>.json for committing
# at the repo root.
#
#   scripts/bench_trajectory.sh [build-dir] [out-file]
#
# The committed series (BENCH_2026-08-08.json, BENCH_<next>.json, ...) is
# the repo's performance trajectory: diffing two files shows how modeled
# fig9 numbers and real-thread wallclock_ctt numbers moved between
# checkpoints.  Scales are fixed here so the files stay comparable; the
# wallclock numbers still move with the host, which is why the snapshot
# records the machine alongside them, with the UTC time of the run and the
# commit and dirty flag of the tree that produced it.
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

# Fixed scales: large enough that the CTT pipeline actually fills, small
# enough that the whole run stays under a minute on a laptop.
FIG9_SCALE="--keys=20000 --ops=60000"
WALLCLOCK_SCALE="--keys=20000 --ops=60000 --threads=4 --reps=3"
CLUSTER_SCALE="--keys=20000 --ops=60000 --cluster=3"

NO_ASLR=()
if setarch "$(uname -m)" -R true 2> /dev/null; then
  NO_ASLR=(setarch "$(uname -m)" -R)
fi

echo "== fig9_performance (modeled, all engines x all workloads) =="
"${NO_ASLR[@]}" "${BUILD_DIR}/bench/fig9_performance" ${FIG9_SCALE} \
    --metrics-json="${TMP_DIR}/fig9.json" > /dev/null

echo "== wallclock_ctt (real threads) =="
"${BUILD_DIR}/bench/wallclock_ctt" ${WALLCLOCK_SCALE} \
    --metrics-json="${TMP_DIR}/wallclock.json" > /dev/null

# Info-only series: the 3-shard cluster demo serves the IPGEO stream
# through prefix routing + per-shard HA pairs (and a mid-run failover),
# so its throughput tracks the cluster overhead over the bare pair.  All
# cluster runs report wallclock=true, which keeps them out of the
# regression gate automatically — they move with the host.
echo "== ipgeo_service --cluster (sharded HA, info-only) =="
"${BUILD_DIR}/examples/ipgeo_service" ${CLUSTER_SCALE} \
    --metrics-json="${TMP_DIR}/cluster.json" > /dev/null

echo "== validating snapshots =="
python3 "${REPO_DIR}/scripts/check_metrics_json.py" "${TMP_DIR}/fig9.json"
python3 "${REPO_DIR}/scripts/check_metrics_json.py" "${TMP_DIR}/wallclock.json"
python3 "${REPO_DIR}/scripts/check_metrics_json.py" "${TMP_DIR}/cluster.json"

echo "== merging -> ${OUT_FILE} =="
python3 - "${TMP_DIR}/fig9.json" "${TMP_DIR}/wallclock.json" \
    "${TMP_DIR}/cluster.json" "${OUT_FILE}" "${REPO_DIR}" \
    "${#NO_ASLR[@]}" <<'PY'
import datetime
import json
import platform
import subprocess
import sys

fig9_path, wallclock_path, cluster_path, out_path, repo_dir = sys.argv[1:6]
aslr_disabled = sys.argv[6] != "0"


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


cluster = load(cluster_path)
# The service demo also re-records its SMART/DCART/FT baselines; the
# trajectory only wants the cluster series itself.
cluster["runs"] = [r for r in cluster.get("runs", [])
                   if r.get("engine") == "DCART-CLUSTER"]

snapshots = {"fig9_performance": load(fig9_path),
             "wallclock_ctt": load(wallclock_path),
             "ipgeo_cluster": cluster}
status = git("status", "--porcelain", "--untracked-files=no")
merged = {
    "baseline_version": 1,
    "date": datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"),
    "commit": git("rev-parse", "HEAD") or "",
    "dirty": None if status is None else status != "",
    "aslr_disabled": aslr_disabled,
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
