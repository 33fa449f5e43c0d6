#!/usr/bin/env bash
# Allocation regression gate: run the Fig. 6a star planning benchmark
# with -benchmem and compare allocs/op against the checked-in baseline.
# Allocations per op are deterministic for the fixed workload, unlike
# wall time, so the gate is usable on loaded CI machines. It watches the
# planning-phase benchmark over 200 views (planner baseline, guarding
# the interned homomorphism/cover kernels); the engine-backed M2 gate
# that used to run beside it is a plain test now
# (internal/cost/m2_allocs_test.go, TestM2PlanningAllocs). The gate fails
# when allocs/op regress more than 10% above the baseline; an improvement
# beyond 10% prints a reminder to re-baseline.
#
# Usage: scripts/bench_engine.sh [-update]
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=(
    'BenchmarkFig6aStarPlanning scripts/bench_planner_baseline.txt bench_planner'
)

fail=0
for entry in "${BENCHES[@]}"; do
    read -r bench baseline_file name <<<"$entry"

    out=$(go test -run '^$' -bench "^${bench}\$" -benchmem -benchtime 3x . 2>&1) || {
        echo "$out"
        exit 1
    }
    echo "$out"
    allocs=$(echo "$out" | awk '/allocs\/op/ {print $(NF-1); exit}')
    if [ -z "$allocs" ]; then
        echo "$name: could not parse allocs/op from benchmark output" >&2
        exit 1
    fi

    if [ "${1:-}" = "-update" ]; then
        echo "$allocs" > "$baseline_file"
        echo "$name: baseline updated to $allocs allocs/op"
        continue
    fi

    baseline=$(cat "$baseline_file")
    # Integer math: fail when allocs > baseline * 1.1.
    limit=$((baseline + baseline / 10))
    floor=$((baseline - baseline / 10))
    echo "$name: $allocs allocs/op (baseline $baseline, limit $limit)"
    if [ "$allocs" -gt "$limit" ]; then
        echo "$name: FAIL — allocs/op regressed >10% over baseline" >&2
        fail=1
        continue
    fi
    if [ "$allocs" -lt "$floor" ]; then
        echo "$name: improved >10% under baseline; run scripts/bench_engine.sh -update to lock it in"
    fi
    echo "$name: OK"
done
exit "$fail"
