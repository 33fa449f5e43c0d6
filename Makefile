# viewplan build targets. `make check` is the fast pre-commit gate
# (vet + viewplanlint + race-enabled obs/corecover tests); `make lint`
# runs just the repo's analyzer suite; `make test` is the full suite;
# `make bench` runs the planner allocation gate (Fig. 6a CoreCover
# planning, allocs/op diffed against scripts/bench_planner_baseline.txt,
# >10% regression fails; the engine-backed M2 gate is the plain test
# TestM2PlanningAllocs in internal/cost); `make benchall` runs every benchmark; `make
# serve-bench` gates the resident service: the warm-request allocation
# gate (scripts/bench_service.sh) plus the QPS harness, which writes
# BENCH_service.json and fails unless warm p50/p99 beat the cold p50 by
# 5x; `make trace` exports a sample Perfetto trace of a Fig. 6a run and
# validates the trace-event JSON with tracecheck.

GO ?= go

# Every source file the lint binary is built from: editing an analyzer,
# the framework, or the driver invalidates bin/viewplanlint, so `make
# lint` never runs a stale binary against a new rule set.
LINT_SRC := $(shell find cmd/viewplanlint internal/lint -name '*.go' -not -path '*/testdata/*')

.PHONY: build test check lint bench benchall serve-bench vet trace

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check:
	./scripts/check.sh

bin/viewplanlint: $(LINT_SRC)
	$(GO) build -o $@ ./cmd/viewplanlint

lint: bin/viewplanlint
	./bin/viewplanlint -baseline lint_baseline.json ./...

vet:
	$(GO) vet ./...

bench:
	./scripts/bench_engine.sh

benchall:
	$(GO) test -bench=. -benchmem -run=^$$ .

serve-bench:
	./scripts/bench_service.sh
	$(GO) run ./cmd/servebench

# A small Fig. 6a sweep with span capture on: writes bin/trace_fig6a.json
# and verifies it is well-formed trace-event JSON (then open the file at
# https://ui.perfetto.dev to inspect the run as a timeline).
trace:
	$(GO) build -o bin/benchviews ./cmd/benchviews
	$(GO) build -o bin/tracecheck ./cmd/tracecheck
	./bin/benchviews -fig 6a -queries 4 -views 100 -cost m2 -traceout bin/trace_fig6a.json >/dev/null
	./bin/tracecheck bin/trace_fig6a.json
