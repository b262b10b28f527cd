#!/usr/bin/env bash
# run.sh — one full pass of the benchmark: builds the driver once, runs the
# four workloads one after another and prints host.calib_ms before and after
# each. A workload whose two calibrations differ by more than 5 % ran beside
# a noisy neighbour, not a slower program: it is repeated, at most twice, and
# the attempt count is printed.
#
#   benchmark/run.sh                      # untraced pass, seed 1
#   SEED=7 TRACE=1 benchmark/run.sh       # traced pass with layer replay
#   REPORT=benchmark/out/setA SEED=3 benchmark/run.sh   # keep run reports for -collect
set -euo pipefail
cd "$(dirname "$0")/.."

out=benchmark/out
mkdir -p "$out"
go build -o "$out/bench" ./benchmark

seed="${SEED:-1}"
trace="${TRACE:-0}"
report=()
if [ -n "${REPORT:-}" ]; then
    report=(--report "$REPORT")
fi

for workload in steady capacity acplane policy-churn; do
    for attempt in 1 2 3; do
        "$out/bench" --workload "$workload" --seed "$seed" --trace "$trace" "${report[@]}" 2>"$out/last.err"
        cat "$out/last.err" >&2
        drift=$(sed -n 's/.*drift_pct=\(-\{0,1\}[0-9.]*\).*/\1/p' "$out/last.err" | tail -n 1)
        if awk -v d="${drift:-0}" 'BEGIN { exit !(d <= 5 && d >= -5) }'; then
            break
        fi
        echo "run.sh: $workload attempt $attempt: calibration drifted ${drift}% (noisy host)" >&2
    done
    echo "run.sh: $workload done after $attempt attempt(s)" >&2
done
