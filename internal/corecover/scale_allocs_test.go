//go:build !race

// Excluded under -race: the race detector's instrumentation allocates,
// so AllocsPerRun counts would gate instrumentation, not the planner.
package corecover

import (
	"testing"

	"viewplan/internal/workload"
)

// TestScalePlanningAllocs is the allocation gate on prepare's
// catalog-backed path: an 8-subgoal star query planned against a
// resident 1000-view catalog must do near-zero work for the views the
// candidate prefilter rules out. Allocations per op are deterministic
// for the fixed workload, so the ceiling is exact; a regression here
// means the pipeline started paying per-view (or per-class) costs again.
func TestScalePlanningAllocs(t *testing.T) {
	inst, err := workload.ScaleCatalog(1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := CompileViews(inst.Views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxRewritings: 8, Catalog: cat}
	plan := func() {
		res, err := CoreCover(inst.Query, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rewritings) == 0 {
			t.Fatal("no rewriting")
		}
	}
	plan() // warm the kernel's frame pool
	allocs := testing.AllocsPerRun(5, plan)
	// The sharded pipeline this path replaced was gated at 673.
	const ceiling = 673
	if allocs > ceiling {
		t.Fatalf("1000-view resident-catalog plan allocated %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("1000-view resident-catalog plan: %.0f allocs/op", allocs)
}
