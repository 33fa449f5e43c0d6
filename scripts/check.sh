#!/bin/sh
# check.sh — fast pre-commit gate: vet everything, run viewplanlint
# (the repo's own analyzer suite: determinism, tracer-threading, and
# intern-safety invariants; see internal/lint), then run the
# observability, planner-core, view-tuple, and planning-service tests
# with the race detector (the obs counters, the shared Registry with its
# atomic histograms — including the end-to-end
# TestRegistryConcurrentPlanQuery merge test — the hom cache, the
# parallel fanout, and the resident ViewCatalog + plan cache hammered by
# the service soak are the only shared mutable state on the hot path, so
# these are the packages where a data race would hide), run the
# benchmark module's own tests (bench/ is a separate module that
# compiles against a frozen import surface of this one — see
# bench/README.md — so the root `go test ./...` cannot see a change
# break it), and finish with a short fuzz smoke of the cq parser.
#
# The lint binary is built once into bin/ (go's build cache makes the
# rebuild a no-op when nothing changed), keeping the whole gate fast.
# viewplanlint runs against the checked-in lint_baseline.json: only
# findings not in the baseline fail the gate, so a deliberate bulk
# change can land with recorded findings without green-washing new
# ones. The baseline is empty today — regenerate it with
# `./bin/viewplanlint -write-baseline lint_baseline.json ./...` only
# when a PR's review explicitly accepts the recorded findings.
#
# VIEWPLAN_PARALLEL=8 forces the differential tests to drive the
# parallel planner paths with a wide worker pool even on small machines,
# so the race detector actually sees concurrent schedules.
#
# Usage: ./scripts/check.sh   (or: make check)
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== viewplanlint ./... (per-analyzer counts on stderr)"
go build -o bin/viewplanlint ./cmd/viewplanlint
./bin/viewplanlint -baseline lint_baseline.json ./...

echo "== go test -race ./internal/obs/... ./internal/corecover/... ./internal/views/... ./internal/service/... (VIEWPLAN_PARALLEL=8)"
VIEWPLAN_PARALLEL=8 go test -race ./internal/obs/... ./internal/corecover/... ./internal/views/... ./internal/service/...

echo "== benchmark module: (cd bench && go test ./...)"
(cd bench && go test ./...)

echo "== fuzz smoke: cq parser round-trips (10s each)"
go test -run='^$' -fuzz=FuzzParseQuery -fuzztime=10s ./internal/cq
go test -run='^$' -fuzz=FuzzParseProgram -fuzztime=10s ./internal/cq

echo "check: OK"
