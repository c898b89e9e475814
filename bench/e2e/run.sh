#!/usr/bin/env bash
# Build the end-to-end benchmark driver, run every workload, check every
# reply, and print every metric as `name value unit` (README.md).
#
#   bench/e2e/run.sh [--trace] [--smoke] [--seed N]
#
#   --trace   per-layer metrics from a traced run of each workload
#   --smoke   2 seconds per workload, same checks
# Exits non-zero when any workload fails its output checks.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
trace=0
seed=1
seconds=()
while [ $# -gt 0 ]; do
    case "$1" in
        --trace) trace=1 ;;
        --smoke) seconds=(--seconds 2) ;;
        --seed) seed=$2; shift ;;
        *) echo "usage: $0 [--trace] [--smoke] [--seed N]" >&2; exit 2 ;;
    esac
    shift
done

status=0
for w in mlp_open gpt_decode gpt_prefill; do
    echo "== $w"
    python3 "$here/run.py" --workload "$w" --seed "$seed" \
        --trace "$trace" "${seconds[@]}" || status=1
done
exit $status
