package viewplan_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"viewplan"
	"viewplan/internal/workload"
)

// The paper's evaluation (Section 7, Figures 6–9) as assertions. One
// scaled-down sweep per figure family runs through the public facade
// under the paper's protocol: 8-subgoal star and chain queries, views of
// 1–3 random subgoals, queries without a rewriting skipped. Each claim
// EXPERIMENTS.md makes about a figure's shape is checked on deterministic
// work counts rather than on wall time, so a change that breaks view
// grouping, tuple-core grouping or the cover search fails here.
//
// The sweep is small (8 queries at 100, 300 and 1 000 views) but the
// counts are pure functions of the seed. Run
//
//	go test -run TestPaperFigureShapes -v .
//
// to print the tables EXPERIMENTS.md records.

// figureViewCounts is the x axis of every sweep.
var figureViewCounts = []int{100, 300, 1000}

const (
	figureQueries = 8 // seeded queries per point (paper: 40)
	figureSeed    = 1
)

// figurePoint is one x position of a sweep, averaged over the queries
// that have a rewriting.
type figurePoint struct {
	views, withRewriting  int
	classes               float64 // view equivalence classes (Figs. 7a/9a)
	allTuples, repTuples  float64 // view tuples, representative tuples (Figs. 7b/9b)
	coverNodes, homSearch float64 // planner work per query (Figs. 6/8)
	avgMs, maxMs          float64 // wall time per query (Figs. 6/8)
}

// figureInstances draws the seeded queries of one sweep point. Seeds
// follow the point's index xi and the query's index, so every point
// draws its own queries.
func figureInstances(t *testing.T, shape workload.Shape, nondist, xi, nv int) []*workload.Instance {
	t.Helper()
	insts := make([]*workload.Instance, figureQueries)
	for qi := range insts {
		inst, err := workload.Generate(workload.Config{
			Shape:            shape,
			QuerySubgoals:    8,
			NumViews:         nv,
			Nondistinguished: nondist,
			Seed:             figureSeed + int64(xi*10000+qi),
		})
		if err != nil {
			t.Fatal(err)
		}
		insts[qi] = inst
	}
	return insts
}

// measureFigure plans every instance under opts and averages over the
// ones that have a rewriting.
func measureFigure(t *testing.T, insts []*workload.Instance, opts viewplan.Options) figurePoint {
	t.Helper()
	pt := figurePoint{views: insts[0].Views.Len()}
	for _, inst := range insts {
		opts.Tracer = viewplan.NewTracer()
		start := time.Now()
		res, err := viewplan.FindGMRsWith(inst.Query, inst.Views, opts)
		if err != nil {
			t.Fatal(err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if len(res.Rewritings) == 0 {
			continue // the paper skips queries without a rewriting
		}
		pt.withRewriting++
		pt.classes += float64(len(res.ViewClasses))
		pt.allTuples += float64(len(viewplan.ViewTuples(inst.Query, inst.Views)))
		pt.repTuples += float64(len(res.Classes) - len(res.FilterClasses()))
		pt.coverNodes += float64(res.PlanningStats.Counters["cover_nodes"])
		pt.homSearch += float64(res.PlanningStats.Counters["hom_searches"])
		pt.avgMs += ms
		pt.maxMs = max(pt.maxMs, ms)
	}
	if pt.withRewriting == 0 {
		t.Fatalf("no query has a rewriting at %d views", pt.views)
	}
	n := float64(pt.withRewriting)
	pt.classes /= n
	pt.allTuples /= n
	pt.repTuples /= n
	pt.coverNodes /= n
	pt.homSearch /= n
	pt.avgMs /= n
	return pt
}

func TestPaperFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("the Section 7 sweep is skipped under -short")
	}
	type sweep struct {
		fig     string // the timing figure; its (a) sweep also feeds the class figures
		shape   workload.Shape
		nondist int
		// coverNodes is the seeded run's cover_nodes per query at each
		// view count; a point may exceed it by at most 25 %.
		coverNodes []float64
		pts        []figurePoint
	}
	sweeps := []*sweep{
		{fig: "6a", shape: workload.Star, coverNodes: []float64{269.6, 767.6, 6722.9}},
		{fig: "6b", shape: workload.Star, nondist: 1, coverNodes: []float64{383.9, 783.1, 5011.2}},
		{fig: "8a", shape: workload.Chain, coverNodes: []float64{86.5, 113.0, 116.4}},
		{fig: "8b", shape: workload.Chain, nondist: 1, coverNodes: []float64{93.0, 99.6, 91.4}},
	}
	last := len(figureViewCounts) - 1
	var starAtLast []*workload.Instance // the grouping ablation replans these
	for _, s := range sweeps {
		for xi, nv := range figureViewCounts {
			insts := figureInstances(t, s.shape, s.nondist, xi, nv)
			s.pts = append(s.pts, measureFigure(t, insts, viewplan.Options{}))
			if s == sweeps[0] && xi == last {
				starAtLast = insts
			}
		}
	}
	star, chain := sweeps[0].pts, sweeps[2].pts
	var b strings.Builder

	// Figs. 6/8: CoreCover time is bounded and grows sub-quadratically in
	// the number of views. Ten times the views may cost at most 100 times
	// the work per query, and no query may reach the paper's 1 s.
	for _, s := range sweeps {
		fmt.Fprintf(&b, "\nFigure %s (%s, %d nondistinguished): time of generating all GMRs\n", s.fig, s.shape, s.nondist)
		fmt.Fprintf(&b, "| views | avg ms | max ms | with rewriting | cover nodes | hom searches |\n")
		fmt.Fprintf(&b, "|---:|---:|---:|---:|---:|---:|\n")
		for i, p := range s.pts {
			fmt.Fprintf(&b, "| %d | %.2f | %.2f | %d/%d | %.1f | %.1f |\n",
				p.views, p.avgMs, p.maxMs, p.withRewriting, figureQueries, p.coverNodes, p.homSearch)
			if p.maxMs >= 1000 {
				t.Errorf("Fig. %s: a query took %.0f ms at %d views; the paper's bound is 1 s", s.fig, p.maxMs, p.views)
			}
			// The counts are pure functions of the seed, so a weaker cover
			// search shows here even where the growth ratio still holds.
			if ceiling := 1.25 * s.coverNodes[i]; p.coverNodes > ceiling {
				t.Errorf("Fig. %s: %.1f cover nodes per query at %d views; ceiling %.1f (seeded %.1f + 25 %%)",
					s.fig, p.coverNodes, p.views, ceiling, s.coverNodes[i])
			}
		}
		lo, hi := s.pts[0], s.pts[last]
		for _, c := range []struct {
			name   string
			lo, hi float64
		}{{"cover_nodes", lo.coverNodes, hi.coverNodes}, {"hom_searches", lo.homSearch, hi.homSearch}} {
			if c.hi >= 100*c.lo {
				t.Errorf("Fig. %s: %s per query grows %.1f× from %d to %d views; want < 100× (sub-quadratic)",
					s.fig, c.name, c.hi/c.lo, lo.views, hi.views)
			}
		}
	}

	// Figs. 7a/9a: view classes grow with decreasing slope. Figs. 7b/9b:
	// representative tuples are a function of the query, not of the view
	// count, while all view tuples grow with the views.
	for _, f := range []struct {
		fig string
		pts []figurePoint
	}{{"7", star}, {"9", chain}} {
		p := f.pts
		fmt.Fprintf(&b, "\nFigures %sa/%sb: view classes, view tuples, representative tuples\n", f.fig, f.fig)
		fmt.Fprintf(&b, "| views | classes | all tuples | representative |\n")
		fmt.Fprintf(&b, "|---:|---:|---:|---:|\n")
		for i, pt := range p {
			fmt.Fprintf(&b, "| %d | %.1f | %.1f | %.1f |\n", pt.views, pt.classes, pt.allTuples, pt.repTuples)
			if i > 0 && pt.classes < p[i-1].classes {
				t.Errorf("Fig. %sa: classes fall from %.1f to %.1f (%d → %d views)",
					f.fig, p[i-1].classes, pt.classes, p[i-1].views, pt.views)
			}
			if pt.repTuples > pt.allTuples {
				t.Errorf("Fig. %sb: %.1f representative tuples exceed %.1f tuples at %d views",
					f.fig, pt.repTuples, pt.allTuples, pt.views)
			}
		}
		slope := func(a, b figurePoint) float64 { return (b.classes - a.classes) / float64(b.views-a.views) }
		if early, late := slope(p[0], p[1]), slope(p[1], p[2]); late >= early {
			t.Errorf("Fig. %sa: class slope %.3f over %d→%d views is not below %.3f over %d→%d",
				f.fig, late, p[1].views, p[2].views, early, p[0].views, p[1].views)
		}
		if lo, hi := p[0].allTuples, p[last].allTuples; hi < 5*lo {
			t.Errorf("Fig. %sb: all view tuples grow only %.1f× from %d to %d views; want ≥ 5×",
				f.fig, hi/lo, p[0].views, p[last].views)
		}
	}
	// Chain fragments of length ≤ 3 over the 16 base relations admit
	// exactly 45 distinct views, so the chain classes saturate there.
	if got := chain[last].classes; got != 45 {
		t.Errorf("Fig. 9a: %.1f classes at %d views; want the 45 distinct chain fragments", got, chain[last].views)
	}
	// An 8-subgoal chain overlaps exactly 8+7+6 = 21 fragments of length
	// ≤ 3; once the views cover them all, that is the representative count.
	for _, p := range chain[1:] {
		if p.repTuples != 21 {
			t.Errorf("Fig. 9b: %.1f representative tuples at %d views; want exactly 21 = 8+7+6", p.repTuples, p.views)
		}
	}
	// Star subsets of size ≤ 3 over 8 subgoals give at most 92 distinct cores.
	for _, p := range star {
		if p.repTuples > 92 {
			t.Errorf("Fig. 7b: %.1f representative tuples at %d views exceed the 92 possible star cores", p.repTuples, p.views)
		}
	}

	// Grouping ablation: on the same 1 000-view star queries, view and
	// tuple-core grouping is what keeps the cover search small.
	ungrouped := measureFigure(t, starAtLast, viewplan.Options{
		DisableViewGrouping:  true,
		DisableTupleGrouping: true,
	})
	fmt.Fprintf(&b, "\nGrouping ablation (star, %d views): cover nodes per query %.1f grouped, %.1f ungrouped; avg ms %.2f vs %.2f\n",
		ungrouped.views, star[last].coverNodes, ungrouped.coverNodes, star[last].avgMs, ungrouped.avgMs)
	if ungrouped.coverNodes < 5*star[last].coverNodes {
		t.Errorf("grouping ablation: grouping cuts cover nodes only %.1f× (%.1f vs %.1f); want ≥ 5×",
			ungrouped.coverNodes/star[last].coverNodes, star[last].coverNodes, ungrouped.coverNodes)
	}
	t.Log(b.String())
}
