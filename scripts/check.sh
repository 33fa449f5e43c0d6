#!/bin/sh
# check.sh — fast pre-commit gate: vet everything, run viewplanlint
# (the repo's own analyzer suite: determinism, tracer-threading, and
# intern-safety invariants; see internal/lint), then run the
# observability, planner-core, view-tuple, and planning-service tests
# with the race detector. A planning request is one sequential pass, so
# the shared mutable state is what requests share with each other: the
# obs counters and the Registry with its atomic histograms (including
# the end-to-end TestRegistryConcurrentPlanQuery merge test), the
# containment kernel's pooled search frames, and the resident
# ViewCatalog + plan cache — all of it hammered by the service soak,
# the only concurrent driver of the planner. Then run the benchmark
# module's own tests (bench/ is a separate module that compiles against
# a frozen import surface of this one — see bench/README.md; the root
# surface_test.go pins that surface for tier-1, this step runs the
# benchmark's own digests), and finish with a short fuzz smoke of the cq
# parser. The allocation gates (*_allocs_test.go) and the paper's figure
# shapes (figures_test.go) are plain tests that run in `go test ./...`,
# so they need no step here; bench/'s tests are the one benchmark step.
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
# Usage: ./scripts/check.sh   (or: make check)
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== viewplanlint ./... (per-analyzer counts on stderr)"
go build -o bin/viewplanlint ./cmd/viewplanlint
./bin/viewplanlint -baseline lint_baseline.json ./...

echo "== go test -race ./internal/obs/... ./internal/corecover/... ./internal/views/... ./internal/service/..."
go test -race ./internal/obs/... ./internal/corecover/... ./internal/views/... ./internal/service/...

echo "== benchmark module: (cd bench && go test ./...)"
(cd bench && go test ./...)

echo "== fuzz smoke: cq parser round-trips (10s each)"
go test -run='^$' -fuzz=FuzzParseQuery -fuzztime=10s ./internal/cq
go test -run='^$' -fuzz=FuzzParseProgram -fuzztime=10s ./internal/cq

echo "check: OK"
