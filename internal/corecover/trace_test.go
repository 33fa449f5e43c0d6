package corecover

import (
	"fmt"
	"testing"

	"viewplan/internal/obs"
	"viewplan/internal/workload"
)

// TestTraceAggregates runs a small traced star sweep (6-subgoal queries,
// 4 per point at 40 and 80 views) and checks what a traced run reports:
// the five work counters are nonzero, and the six sub-phases account for
// the root corecover span to within 10 %.
func TestTraceAggregates(t *testing.T) {
	// The phase-time check compares sub-millisecond spans, so one
	// preemption between two of them breaks it (a few runs in a hundred
	// on a shared machine). A sweep that misses it is repeated; only an
	// accounting gap that shows in every attempt fails the test.
	const attempts = 3
	for attempt := 1; ; attempt++ {
		gap := ""
		for xi, nv := range []int{40, 80} {
			counters := map[string]int64{}
			phases := map[string]int64{}
			var walk func([]obs.PhaseStats)
			walk = func(ps []obs.PhaseStats) {
				for _, p := range ps {
					phases[p.Phase] += p.Nanos
					walk(p.Children)
				}
			}
			for qi := 0; qi < 4; qi++ {
				inst, err := workload.Generate(workload.Config{
					Shape:         workload.Star,
					QuerySubgoals: 6,
					NumViews:      nv,
					Seed:          100 + int64(xi*10000+qi),
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := CoreCover(inst.Query, inst.Views, Options{Tracer: obs.New()})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rewritings) == 0 {
					continue
				}
				for name, v := range res.PlanningStats.Counters {
					counters[name] += v
				}
				walk(res.PlanningStats.Phases)
			}
			for _, ctr := range []string{"view_tuples", "tuple_cores", "cover_nodes", "hom_searches", "rewritings"} {
				if counters[ctr] <= 0 {
					t.Fatalf("counter %s = %d at %d views", ctr, counters[ctr], nv)
				}
			}
			total := phases["corecover"]
			if total <= 0 {
				t.Fatalf("corecover phase time missing at %d views", nv)
			}
			var sum int64
			for _, name := range []string{"minimize", "view-grouping", "view-tuples", "tuple-cores", "cover-search", "assemble"} {
				sum += phases[name]
			}
			if ratio := float64(sum) / float64(total); ratio < 0.9 || ratio > 1.1 {
				gap = fmt.Sprintf("sub-phase sum %dns is %.0f%% of total %dns at %d views", sum, 100*ratio, total, nv)
			}
		}
		if gap == "" {
			return
		}
		if attempt == attempts {
			t.Fatalf("%s (in each of %d sweeps)", gap, attempts)
		}
	}
}
