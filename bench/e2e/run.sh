#!/usr/bin/env bash
# Run every BENCHMARK.json workload once, untraced, and keep each full result
# in OUT_DIR for compare.py.  Each run prints its metrics by name and unit.
#
#   bench/e2e/run.sh OUT_DIR [SEED]
set -euo pipefail
out=${1:?usage: run.sh OUT_DIR [SEED]}
seed=${2:-42}
here=$(cd "$(dirname "$0")" && pwd)
for workload in $(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
                  "$here/../../BENCHMARK.json"); do
  python3 "$here/run.py" --workload "$workload" --seed "$seed" --keep "$out"
done
