// Benchmarks timing the representative operation of every table and
// figure of the paper's evaluation at a paper-scale point, plus the
// ablations DESIGN.md calls out. The figures' shapes are asserted by
// TestPaperFigureShapes (figures_test.go); these time single operations
// so `go test -bench=.` stays minutes, not hours.
package viewplan_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"viewplan"
	"viewplan/internal/bucket"
	"viewplan/internal/corecover"
	"viewplan/internal/cost"
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/minicon"
	"viewplan/internal/naive"
	"viewplan/internal/views"
	"viewplan/internal/workload"
)

// benchInstance generates a deterministic workload instance that has a
// rewriting, retrying seeds if needed.
func benchInstance(b *testing.B, cfg workload.Config) *workload.Instance {
	b.Helper()
	for s := int64(0); s < 20; s++ {
		cfg.Seed = cfg.Seed*100 + s
		inst, err := workload.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := viewplan.HasRewriting(inst.Query, inst.Views)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			return inst
		}
	}
	b.Fatal("no instance with a rewriting found")
	return nil
}

func benchCoreCover(b *testing.B, shape workload.Shape, nondist, numViews int, opts corecover.Options) {
	inst := benchInstance(b, workload.Config{
		Shape:            shape,
		QuerySubgoals:    8,
		NumViews:         numViews,
		Nondistinguished: nondist,
		Seed:             42,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := corecover.CoreCover(inst.Query, inst.Views, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rewritings) == 0 {
			b.Fatal("no rewriting")
		}
	}
}

// Figure 6(a): star queries, all variables distinguished, time to
// generate all GMRs.
func BenchmarkFig6aStarAllDistinguished(b *testing.B) {
	for _, nv := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("views=%d", nv), func(b *testing.B) {
			benchCoreCover(b, workload.Star, 0, nv, corecover.Options{})
		})
	}
}

// Figure 6(b): star queries, one nondistinguished variable.
func BenchmarkFig6bStarOneNondistinguished(b *testing.B) {
	for _, nv := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("views=%d", nv), func(b *testing.B) {
			benchCoreCover(b, workload.Star, 1, nv, corecover.Options{})
		})
	}
}

// Figure 7(a): grouping views into equivalence classes (star).
func BenchmarkFig7aStarViewClasses(b *testing.B) {
	inst := benchInstance(b, workload.Config{Shape: workload.Star, QuerySubgoals: 8, NumViews: 500, Seed: 7})
	benchViewClasses(b, inst.Views)
}

// Figure 7(b): computing view tuples and their core classes (star).
func BenchmarkFig7bStarViewTupleClasses(b *testing.B) {
	inst := benchInstance(b, workload.Config{Shape: workload.Star, QuerySubgoals: 8, NumViews: 500, Seed: 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuples := viewplan.ViewTuples(inst.Query, inst.Views)
		if len(tuples) == 0 {
			b.Fatal("no tuples")
		}
	}
}

// Figure 8(a): chain queries, all variables distinguished.
func BenchmarkFig8aChainAllDistinguished(b *testing.B) {
	for _, nv := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("views=%d", nv), func(b *testing.B) {
			benchCoreCover(b, workload.Chain, 0, nv, corecover.Options{})
		})
	}
}

// Figure 8(b): chain queries, one nondistinguished variable.
func BenchmarkFig8bChainOneNondistinguished(b *testing.B) {
	for _, nv := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("views=%d", nv), func(b *testing.B) {
			benchCoreCover(b, workload.Chain, 1, nv, corecover.Options{})
		})
	}
}

// benchViewClasses times grouping a fresh copy of vs: each View memoizes
// its definition key, so regrouping the same View objects would time only
// the bucketing and none of the keying the figures measure.
func benchViewClasses(b *testing.B, vs *views.Set) {
	defs := make([]*cq.Query, vs.Len())
	for i, v := range vs.Views {
		defs[i] = v.Def
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := views.MustNewSet(defs...)
		b.StartTimer()
		if got, _ := fresh.EquivalenceClasses(); len(got) == 0 {
			b.Fatal("no classes")
		}
	}
}

// Figure 9(a): view equivalence classes (chain).
func BenchmarkFig9aChainViewClasses(b *testing.B) {
	inst := benchInstance(b, workload.Config{Shape: workload.Chain, QuerySubgoals: 8, NumViews: 500, Seed: 9})
	benchViewClasses(b, inst.Views)
}

// Figure 9(b): view tuples and core classes (chain).
func BenchmarkFig9bChainViewTupleClasses(b *testing.B) {
	inst := benchInstance(b, workload.Config{Shape: workload.Chain, QuerySubgoals: 8, NumViews: 500, Seed: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuples := viewplan.ViewTuples(inst.Query, inst.Views)
		if len(tuples) == 0 {
			b.Fatal("no tuples")
		}
	}
}

// Table 2 / Example 4.1: the tuple-core computation itself.
func BenchmarkTable2TupleCores(b *testing.B) {
	q := viewplan.MustParseQuery("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)")
	vs, err := viewplan.ParseViews(`
		v1(A, B) :- a(A, B), a(B, B).
		v2(C, D) :- a(C, E), b(C, D).
	`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := viewplan.FindGMRs(q, vs)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rewritings) != 1 {
			b.Fatal("wrong GMR count")
		}
	}
}

// example42 builds the Example 4.2 query/views with parameter k.
func example42(k int) (*viewplan.Query, *viewplan.ViewSet, error) {
	var qb, vb strings.Builder
	qb.WriteString("q(X, Y) :- ")
	for i := 1; i <= k; i++ {
		if i > 1 {
			qb.WriteString(", ")
		}
		fmt.Fprintf(&qb, "a%d(X, Z%d), b%d(Z%d, Y)", i, i, i, i)
	}
	fmt.Fprintf(&vb, "v(X, Y) :- %s.\n", qb.String()[len("q(X, Y) :- "):])
	for i := 1; i < k; i++ {
		fmt.Fprintf(&vb, "v%d(X, Y) :- a%d(X, Z%d), b%d(Z%d, Y).\n", i, i, i, i, i)
	}
	q, err := viewplan.ParseQuery(qb.String())
	if err != nil {
		return nil, nil, err
	}
	vs, err := viewplan.ParseViews(vb.String())
	if err != nil {
		return nil, nil, err
	}
	return q, vs, nil
}

// Example 4.2: CoreCover finds the single one-subgoal GMR.
func BenchmarkExample42CoreCover(b *testing.B) {
	q, vs, err := example42(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := viewplan.FindGMRs(q, vs)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rewritings) != 1 || len(res.Rewritings[0].Body) != 1 {
			b.Fatal("wrong GMR")
		}
	}
}

// Example 4.2: MiniCon enumerates redundant-subgoal rewritings instead.
func BenchmarkExample42MiniCon(b *testing.B) {
	q, vs, err := example42(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rws := minicon.Rewritings(q, vs, minicon.Options{EquivalentOnly: true})
		if len(rws) == 0 {
			b.Fatal("no rewritings")
		}
	}
}

// Example 6.1 / Figure 5: the M3 renaming-heuristic plan search.
func BenchmarkExample61M3Heuristic(b *testing.B) {
	vs, err := viewplan.ParseViews(`
		v1(A, B) :- r(A, A), s(B, B).
		v2(A, B) :- t(A, B), s(B, B).
	`)
	if err != nil {
		b.Fatal(err)
	}
	db := viewplan.NewDatabase()
	if err := db.LoadFacts("r(1, 1). s(2, 2). s(4, 4). s(6, 6). s(8, 8). t(1, 2). t(3, 4). t(5, 6). t(7, 8)."); err != nil {
		b.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		b.Fatal(err)
	}
	q := viewplan.MustParseQuery("q(A) :- r(A, A), t(A, B), s(B, B)")
	p2 := viewplan.MustParseQuery("q(A) :- v1(A, B), v2(A, B)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := viewplan.BestPlanM3(db, p2, viewplan.RenamingHeuristic, q, vs)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Cost != 10 {
			b.Fatalf("cost = %d, want the paper's 10", plan.Cost)
		}
	}
}

// Section 5.1: filter selection under M2 (the P2 -> P3 improvement).
func BenchmarkSection51FilterSelection(b *testing.B) {
	vs, err := viewplan.ParseViews(`
		v1(M, D, C) :- car(M, D), loc(D, C).
		v2(S, M, C) :- part(S, M, C).
		v3(S) :- car(M, a), loc(a, C), part(S, M, C).
	`)
	if err != nil {
		b.Fatal(err)
	}
	db := viewplan.NewDatabase()
	var facts strings.Builder
	for i := 0; i < 10; i++ {
		facts.WriteString("car(m" + strconv.Itoa(i) + ", a). loc(a, c" + strconv.Itoa(i) + "). ")
	}
	facts.WriteString("part(s0, m0, c0). ")
	for i := 1; i < 100; i++ {
		facts.WriteString("part(sx" + strconv.Itoa(i) + ", zz, yy). ")
	}
	if err := db.LoadFacts(facts.String()); err != nil {
		b.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		b.Fatal(err)
	}
	q := viewplan.MustParseQuery("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)")
	p2 := viewplan.MustParseQuery("q1(S, C) :- v1(M, a, C), v2(S, M, C)")
	res, err := viewplan.FindMinimalRewritings(q, vs)
	if err != nil {
		b.Fatal(err)
	}
	var filters []viewplan.ViewTuple
	for _, fc := range res.FilterClasses() {
		filters = append(filters, fc.Members...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := viewplan.ImproveWithFilters(db, p2, q, vs, filters)
		if err != nil {
			b.Fatal(err)
		}
		if len(fr.Added) != 1 {
			b.Fatal("filter not selected")
		}
	}
}

// Ablation: equivalence-class grouping off (the paper attributes
// CoreCover's scalability to grouping; compare with Fig6a at 500 views).
func BenchmarkAblationNoViewGrouping(b *testing.B) {
	benchCoreCover(b, workload.Star, 0, 500, corecover.Options{
		DisableViewGrouping:  true,
		DisableTupleGrouping: true,
	})
}

// Ablation: verification skipped (the paper-faithful Theorem 4.1 mode).
func BenchmarkAblationNoVerification(b *testing.B) {
	benchCoreCover(b, workload.Star, 0, 500, corecover.Options{SkipVerification: true})
}

// Baseline: naive Theorem 3.1 enumeration (kept at 60 views — it is
// exponential in the number of view tuples).
func BenchmarkBaselineNaive(b *testing.B) {
	inst := benchInstance(b, workload.Config{Shape: workload.Star, QuerySubgoals: 6, NumViews: 60, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := naive.GMRs(inst.Query, inst.Views, naive.Options{MaxRewritings: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(got) == 0 {
			b.Fatal("no rewriting")
		}
	}
}

// Baseline: CoreCover on the same 60-view instance as BenchmarkBaselineNaive.
func BenchmarkBaselineCoreCoverSmall(b *testing.B) {
	benchCoreCover(b, workload.Star, 0, 60, corecover.Options{})
}

// Baseline: bucket algorithm on the same small instance, capped.
func BenchmarkBaselineBucket(b *testing.B) {
	inst := benchInstance(b, workload.Config{Shape: workload.Star, QuerySubgoals: 6, NumViews: 60, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := bucket.Rewritings(inst.Query, inst.Views, bucket.Options{MaxRewritings: 1, MaxCandidates: 200000})
		if err != nil {
			b.Fatal(err)
		}
		_ = got
	}
}

// The M3 order search on the Figure 6(a) star workload, end to end:
// CoreCover* plus the order search over views materialized from
// synthetic base data (100 rows per relation, 100-value domain: star-join
// fan-out near 1). The request leaves Strategy at its zero value,
// SupplementaryRelations. Kept at 100 views and a small candidate cap:
// M3 is factorial in the rewriting body size.
func BenchmarkFig6aStarM3(b *testing.B) {
	inst := benchInstance(b, workload.Config{
		Shape:         workload.Star,
		QuerySubgoals: 8,
		NumViews:      100,
		Seed:          42,
	})
	db := viewplan.NewDatabase()
	gen := engine.NewDataGen(1, 100)
	gen.FillForQuery(db, inst.Query, 100)
	if err := db.MaterializeViews(inst.Views); err != nil {
		b.Fatal(err)
	}
	req := viewplan.PlanRequest{Model: viewplan.M3, MaxRewritings: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := viewplan.PlanQuery(db, inst.Query, inst.Views, req)
		if err != nil {
			b.Fatal(err)
		}
		if res == nil || res.Plan == nil {
			b.Fatal("no plan")
		}
	}
}

// Ablation: M2 subset-DP optimizer vs exhaustive permutations.
func BenchmarkM2OptimizerDP(b *testing.B) {
	db, p := m2OptimizerFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cost.BestPlanM2(db, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkM2OptimizerExhaustive materializes the plan of every order.
func BenchmarkM2OptimizerExhaustive(b *testing.B) {
	db, p := m2OptimizerFixture(b)
	var orders [][]int
	var perm func(order, rest []int)
	perm = func(order, rest []int) {
		if len(rest) == 0 {
			orders = append(orders, order)
		}
		for i, g := range rest {
			perm(append(order[:len(order):len(order)], g), append(append([]int(nil), rest[:i]...), rest[i+1:]...))
		}
	}
	perm(nil, []int{0, 1, 2, 3, 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, order := range orders {
			if _, err := cost.PlanM2(db, p, order); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// m2OptimizerFixture builds a 5-view chain rewriting over random data.
// Neutral join fan-out (rows ≈ domain) and a short chain keep the
// exhaustive baseline's cross-product orders affordable, so the pair of
// benchmarks measures search strategy, not data volume.
func m2OptimizerFixture(b *testing.B) (*engine.Database, *viewplan.Query) {
	b.Helper()
	var vsrc, body strings.Builder
	for i := 1; i <= 5; i++ {
		fmt.Fprintf(&vsrc, "w%d(A, B) :- e%d(A, B).\n", i, i)
		if i > 1 {
			body.WriteString(", ")
		}
		fmt.Fprintf(&body, "w%d(X%d, X%d)", i, i-1, i)
	}
	vs, err := viewplan.ParseViews(vsrc.String())
	if err != nil {
		b.Fatal(err)
	}
	db := viewplan.NewDatabase()
	gen := engine.NewDataGen(3, 25)
	for i := 1; i <= 5; i++ {
		gen.Fill(db, "e"+strconv.Itoa(i), 2, 25)
	}
	if err := db.MaterializeViews(vs); err != nil {
		b.Fatal(err)
	}
	p, err := viewplan.ParseQuery("q(X0, X5) :- " + body.String())
	if err != nil {
		b.Fatal(err)
	}
	return db, p
}

// Ablation: statistics-only optimizer (no execution) vs the measuring
// M2 optimizer on the same fixture.
func BenchmarkAblationEstimatedOptimizer(b *testing.B) {
	db, p := m2OptimizerFixture(b)
	cat := viewplan.CollectStats(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := viewplan.EstimateBestOrderM2(cat, p); err != nil {
			b.Fatal(err)
		}
	}
}

// Containment machinery microbenchmark (the inner loop of everything).
func BenchmarkContainmentMapping(b *testing.B) {
	q1 := viewplan.MustParseQuery("q(X0, X8) :- e1(X0, X1), e2(X1, X2), e3(X2, X3), e4(X3, X4), e5(X4, X5), e6(X5, X6), e7(X6, X7), e8(X7, X8)")
	q2 := viewplan.MustParseQuery("q(Y0, Y8) :- e1(Y0, Y1), e2(Y1, Y2), e3(Y2, Y3), e4(Y3, Y4), e5(Y4, Y5), e6(Y5, Y6), e7(Y6, Y7), e8(Y7, Y8)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !viewplan.Equivalent(q1, q2) {
			b.Fatal("not equivalent")
		}
	}
}

// Engine microbenchmark: evaluating the star query over materialized data.
func BenchmarkEngineEvaluate(b *testing.B) {
	db := viewplan.NewDatabase()
	gen := engine.NewDataGen(5, 60)
	for i := 1; i <= 4; i++ {
		gen.Fill(db, "e"+strconv.Itoa(i), 2, 400)
	}
	q := viewplan.MustParseQuery("q(X0, X1, X2, X3, X4) :- e1(X0, X1), e2(X0, X2), e3(X0, X3), e4(X0, X4)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Evaluate(q); err != nil {
			b.Fatal(err)
		}
	}
}
