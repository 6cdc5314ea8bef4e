#!/bin/sh
# Run every workload end to end, then traced, printing every metric.
# Usage (from the repository root): sh perfbench/all.sh [SEED] [SECONDS]
# Exits 1 if any op of any workload failed its check.
seed=${1:-1}
seconds=${2:-30}
status=0
for trace in 0 1; do
    for workload in compute-series verify-oracle custom-general tables-10m; do
        echo "== $workload --trace $trace"
        python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit $status
