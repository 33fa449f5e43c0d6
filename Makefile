# viewplan build targets. `make check` is the fast pre-commit gate
# (vet + viewplanlint + race-enabled obs/corecover/views/service/engine/
# cost tests + the benchmark module's tests + fuzz smokes of the cq
# parser, the engine's row tables and its query evaluator); `make lint`
# runs just the repo's analyzer suite; `make test` is the full suite
# (allocation gates and the paper's figure shapes included); `make
# benchall` runs every benchmark; `make trace` exports a Perfetto trace
# of one CoreCover run and validates the trace-event JSON with
# tracecheck.

GO ?= go

# Every source file the lint binary is built from: editing an analyzer,
# the framework, or the driver invalidates bin/viewplanlint, so `make
# lint` never runs a stale binary against a new rule set.
LINT_SRC := $(shell find cmd/viewplanlint internal/lint -name '*.go' -not -path '*/testdata/*')

.PHONY: build test check lint benchall vet trace

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

benchall:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The car/loc/part example planned with span capture on: writes
# bin/trace_carlocpart.json and verifies it is well-formed trace-event
# JSON (then open the file at https://ui.perfetto.dev to inspect the run
# as a timeline).
trace:
	$(GO) build -o bin/corecover ./cmd/corecover
	$(GO) build -o bin/tracecheck ./cmd/tracecheck
	./bin/corecover -traceout bin/trace_carlocpart.json testdata/carlocpart.dl >/dev/null
	./bin/tracecheck bin/trace_carlocpart.json
