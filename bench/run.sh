#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds and runs the benchmark from source. Everything a run leaves
# behind, the Go build cache and temporary files included, goes to
# bench/out/, which bench/.gitignore names.
set -euo pipefail
cd "$(dirname "$0")"
export GOCACHE="$PWD/out/.gocache" TMPDIR="$PWD/out/.tmp"
mkdir -p "$GOCACHE" "$TMPDIR"
exec go run . "$@"
