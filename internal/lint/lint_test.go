package lint_test

import (
	"strings"
	"testing"

	"viewplan/internal/lint"
	"viewplan/internal/lint/analysis"
	"viewplan/internal/lint/analysistest"
)

func TestMapIterDet(t *testing.T) {
	analysistest.Run(t, "testdata", lint.MapIterDet, "mapiterdet")
}

func TestTracerParam(t *testing.T) {
	analysistest.Run(t, "testdata", lint.TracerParam, "tracerparam")
}

func TestInternMix(t *testing.T) {
	analysistest.Run(t, "testdata", lint.InternMix, "internmix")
}

func TestInternMixPlannerInterner(t *testing.T) {
	analysistest.Run(t, "testdata", lint.InternMix, "internmix_cq")
}

// TestInternMixViewCatalog pins the resident catalog as an interner
// owner: predicate ids from Catalog.LookupPred are private to one
// catalog value, and copy-on-write generations are distinct id spaces.
func TestInternMixViewCatalog(t *testing.T) {
	analysistest.Run(t, "testdata", lint.InternMix, "internmix_catalog")
}

func TestWallClock(t *testing.T) {
	analysistest.Run(t, "testdata", lint.WallClock, "wallclock")
}

func TestWallClockExemptPackages(t *testing.T) {
	analysistest.Run(t, "testdata", lint.WallClock, "wallclock_exempt")
}

// TestWallClockExemptObsRegistry pins the obs exemption the telemetry
// registry relies on: histogram latencies, uptime, and span timestamps
// all read the clock inside package obs, and the analyzer must stay
// silent there.
func TestWallClockExemptObsRegistry(t *testing.T) {
	analysistest.Run(t, "testdata", lint.WallClock, "wallclock_obs")
}

func TestSortSlice(t *testing.T) {
	analysistest.Run(t, "testdata", lint.SortSlice, "sortslice")
}

func TestNilness(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Nilness, "nilness")
}

// TestDirectiveRequiresReason checks the annotation hygiene rule: a
// //viewplan: directive with no reason suppresses its finding but
// surfaces as a "directive" finding of its own, so the run still fails.
func TestDirectiveRequiresReason(t *testing.T) {
	p, err := analysis.LoadDir("testdata/src", "directivereason")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := analysis.RunAnalyzers(p, []*analysis.Analyzer{lint.MapIterDet})
	if err != nil {
		t.Fatalf("running mapiterdet: %v", err)
	}
	var directive, unsuppressed int
	for _, f := range findings {
		switch {
		case f.Analyzer == "directive":
			directive++
			if !strings.Contains(f.Message, "needs a one-line reason") {
				t.Errorf("directive finding has unexpected message: %s", f)
			}
		case !f.Suppressed:
			unsuppressed++
			t.Errorf("unexpected unsuppressed finding: %s", f)
		}
	}
	if directive != 1 {
		t.Errorf("got %d directive findings, want 1", directive)
	}
	if unsuppressed != 0 {
		t.Errorf("got %d unsuppressed analyzer findings, want 0 (directive suppresses, its own finding fails the run)", unsuppressed)
	}
}

// TestPoolSafe covers the pool ownership contract: use-after-Put,
// retained-closure, deferred-release return, stores and composite
// escapes, interprocedural release/checkout helpers — and the legal
// shapes (ownership-transfer constructor, kill-by-reassignment,
// defer-scoped checkout) the analyzer must stay silent on.
func TestPoolSafe(t *testing.T) {
	analysistest.Run(t, "testdata", lint.PoolSafe, "poolsafe")
}

// TestPoolSafeStream pins the streaming execution path's frame
// contract: a buffered stream that retains frame-backed rows (or the
// frame itself, or a pull closure over it) past the release is flagged,
// while the documented shapes — copy-before-release drains and the
// constructor-transfer/Close-release operator lifecycle — stay silent.
func TestPoolSafeStream(t *testing.T) {
	analysistest.Run(t, "testdata", lint.PoolSafe, "poolsafe_stream")
}

// TestFrozenWrite covers the copy-on-write discipline: writes through
// published catalogs are flagged, writes to fresh successors — directly
// or via a fresh-only-parameter helper like rebuildWork — are not.
func TestFrozenWrite(t *testing.T) {
	analysistest.Run(t, "testdata", lint.FrozenWrite, "frozenwrite")
}

// TestAtomicMix covers mixed atomic/plain access, including the
// _test.go fixture file: the analyzer sweeps test sources, so a plain
// read of an atomically written counter in a test is flagged too.
func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, "testdata", lint.AtomicMix, "atomicmix")
}

// TestLockSafe covers the stripe discipline (double-stripe acquisition,
// deadlock through the call graph, RLock-then-Lock self-deadlock) and
// by-value copies of lock-bearing structs.
func TestLockSafe(t *testing.T) {
	analysistest.Run(t, "testdata", lint.LockSafe, "locksafe")
}

// TestStaleDirective checks the other half of annotation hygiene: a
// well-formed //viewplan: directive that matches no finding of any
// analyzer in the run is itself reported, so dead suppressions cannot
// accumulate and silently swallow future findings.
func TestStaleDirective(t *testing.T) {
	p, err := analysis.LoadDir("testdata/src", "staledirective")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := analysis.RunAnalyzers(p, []*analysis.Analyzer{lint.MapIterDet})
	if err != nil {
		t.Fatalf("running mapiterdet: %v", err)
	}
	var stale int
	for _, f := range findings {
		if f.Analyzer == "directive" && strings.Contains(f.Message, "stale") {
			stale++
			if !strings.Contains(f.Message, "nondet-ok") {
				t.Errorf("stale finding does not name the directive key: %s", f)
			}
			continue
		}
		t.Errorf("unexpected finding: %s", f)
	}
	if stale != 1 {
		t.Errorf("got %d stale-directive findings, want 1", stale)
	}

	// The same fixture run under an analyzer that does not own the
	// nondet-ok key must NOT report the directive as stale: a
	// single-analyzer run cannot judge other analyzers' annotations.
	findings, err = analysis.RunAnalyzers(p, []*analysis.Analyzer{lint.SortSlice})
	if err != nil {
		t.Fatalf("running sortslice: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding from non-owning run: %s", f)
	}
}

// TestInternMixShardIndexes pins the candidate prefilter's id
// discipline (the name predates the single planning pipeline):
// catalog-interned predicate ids resolve against the catalog that minted
// them and stay guarded across catalog generations.
func TestInternMixShardIndexes(t *testing.T) {
	analysistest.Run(t, "testdata", lint.InternMix, "internmix_shard")
}
