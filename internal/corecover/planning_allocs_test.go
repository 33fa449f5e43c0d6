//go:build !race

// Excluded under -race, like scale_allocs_test.go: the race detector's
// instrumentation allocates.
package corecover

import (
	"testing"

	"viewplan/internal/workload"
)

// fig6aStar200 is the fixed instance both gates below plan: the first
// seed-42 Fig. 6a star draw (8 subgoals, 200 views) with a rewriting,
// which is seed 4200.
func fig6aStar200(t *testing.T) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		Shape:         workload.Star,
		QuerySubgoals: 8,
		NumViews:      200,
		Seed:          4200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestFig6aPlanningAllocs gates ad-hoc CoreCover planning over a view
// set: minimize, view grouping, the batch view-tuple probe, tuple-cores,
// the bitset cover search and verification, with no catalog and no
// cache. A run is one sequential pass, so allocations per op are exact
// for the fixed instance; the ceiling is the recorded 6 632 + 10 %.
func TestFig6aPlanningAllocs(t *testing.T) {
	inst := fig6aStar200(t)
	plan := func() {
		res, err := CoreCover(inst.Query, inst.Views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rewritings) == 0 {
			t.Fatal("no rewriting")
		}
	}
	plan() // warm the kernel's frame pool
	allocs := testing.AllocsPerRun(5, plan)
	const ceiling = 7295
	if allocs > ceiling {
		t.Fatalf("200-view Fig. 6a plan allocated %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("200-view Fig. 6a plan: %.0f allocs/op", allocs)
}

// TestWarmPlanCacheHitAllocs gates the resident service's warm path on
// the same instance: a query answered through a compiled catalog and an
// already-primed plan cache, so every run is one hit — canonical
// labeling plus a private copy of the memoized Result. A regression
// means hits started deep-copying or re-rendering again.
func TestWarmPlanCacheHitAllocs(t *testing.T) {
	inst := fig6aStar200(t)
	cat, err := CompileViews(inst.Views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Catalog: cat, Cache: NewPlanCache(16)}
	plan := func() {
		res, err := CoreCover(inst.Query, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rewritings) == 0 {
			t.Fatal("no rewriting")
		}
	}
	plan() // prime the cache
	allocs := testing.AllocsPerRun(100, plan)
	const ceiling = 29
	if allocs > ceiling {
		t.Fatalf("warm plan-cache hit allocated %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("warm plan-cache hit: %.0f allocs/op", allocs)
}
