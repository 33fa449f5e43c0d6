//go:build !race

// The race detector changes allocation counts (sync.Pool drops items at
// random), so the allocation gate only builds without it.

package cost_test

import (
	"testing"

	"viewplan"
	"viewplan/internal/engine"
	"viewplan/internal/workload"
)

// TestM2PlanningAllocs is the allocation gate on engine-backed M2
// planning, on the seed-42 Fig. 6a instance BenchmarkFig6aStarM3 plans:
// an 8-subgoal star over 100 views with 100-row relations, CoreCover*
// capped at 64 candidates, join ordering
// and filter selection end to end. Allocations per op are deterministic
// for the fixed instance; the ceiling is the recorded 15 531 (go1.24)
// plus 10 %, with each view's definition key memoized by the warm-up
// run (18 326 when every request re-keyed every view).
// The materializing lattice search this replaced sat at 118 029: a
// regression toward it means the search went back to building
// relations it only needs the sizes of.
func TestM2PlanningAllocs(t *testing.T) {
	inst, err := workload.Generate(workload.Config{Shape: workload.Star, QuerySubgoals: 8, NumViews: 100, Seed: 4200})
	if err != nil {
		t.Fatal(err)
	}
	db := viewplan.NewDatabase()
	engine.NewDataGen(1, 100).FillForQuery(db, inst.Query, 100)
	if err := db.MaterializeViews(inst.Views); err != nil {
		t.Fatal(err)
	}
	req := viewplan.PlanRequest{Model: viewplan.M2, MaxRewritings: 64}
	plan := func() {
		res, err := viewplan.PlanQuery(db, inst.Query, inst.Views, req)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil || res.Plan == nil {
			t.Fatal("no plan")
		}
	}
	plan() // build the view relations' join indexes, warm the kernel's frame pool
	allocs := testing.AllocsPerRun(5, plan)
	const ceiling = 17085
	if allocs > ceiling {
		t.Fatalf("star-M2 PlanQuery allocated %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("star-M2 PlanQuery: %.0f allocs/op", allocs)
}
