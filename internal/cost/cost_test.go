package cost

import (
	"testing"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/views"
)

func q(src string) *cq.Query { return cq.MustParseQuery(src) }

func mustViews(t *testing.T, src string) *views.Set {
	t.Helper()
	s, err := views.ParseSet(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustDB(t *testing.T, facts string, vs *views.Set) *engine.Database {
	t.Helper()
	db := engine.NewDatabase()
	if err := db.LoadFacts(facts); err != nil {
		t.Fatal(err)
	}
	if vs != nil {
		if err := db.MaterializeViews(vs); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestM1Cost(t *testing.T) {
	if M1Cost(q("q(X) :- v1(X, Y), v2(Y)")) != 2 {
		t.Error("M1 cost should be 2")
	}
}

// example61 is the exact Example 6.1 setting, with the Figure 5 database
// reconstructed from the paper's v1/v2 contents and supplementary
// relation sizes: r = {(1,1)}, s = {(2,2),(4,4),(6,6),(8,8)},
// t = {(1,2),(3,4),(5,6),(7,8)}, giving v1 = {1}×{2,4,6,8} (4 tuples) and
// v2 = {(1,2),(3,4),(5,6),(7,8)}.
func example61(t *testing.T) (*engine.Database, *views.Set, *cq.Query) {
	t.Helper()
	vs := mustViews(t, `
		v1(A, B) :- r(A, A), s(B, B).
		v2(A, B) :- t(A, B), s(B, B).
	`)
	db := mustDB(t, `
		r(1, 1).
		s(2, 2). s(4, 4). s(6, 6). s(8, 8).
		t(1, 2). t(3, 4). t(5, 6). t(7, 8).
	`, vs)
	query := q("q(A) :- r(A, A), t(A, B), s(B, B)")
	return db, vs, query
}

func TestExample61ViewContents(t *testing.T) {
	db, _, _ := example61(t)
	v1 := db.Relation("v1")
	if v1.Size() != 4 {
		t.Errorf("v1 has %d tuples, want 4 (paper: all four tuples in v1)", v1.Size())
	}
	for _, b := range []engine.Value{"2", "4", "6", "8"} {
		if !v1.Contains(engine.Tuple{"1", b}) {
			t.Errorf("v1 missing (1, %s)", b)
		}
	}
	v2 := db.Relation("v2")
	if v2.Size() != 4 || !v2.Contains(engine.Tuple{"1", "2"}) || !v2.Contains(engine.Tuple{"7", "8"}) {
		t.Errorf("v2 = %v", v2.SortedRows())
	}
}

func TestExample61SupplementaryRelationPlans(t *testing.T) {
	db, vs, query := example61(t)
	p1 := q("q(A) :- v1(A, B), v2(A, C)")
	p2 := q("q(A) :- v1(A, B), v2(A, B)")

	if !vs.IsEquivalentRewriting(p1, query) || !vs.IsEquivalentRewriting(p2, query) {
		t.Fatal("P1/P2 should be equivalent rewritings")
	}

	order := []int{0, 1} // [v1, v2] as in the paper's O1/O2

	// F1 = [v1{B}, v2{C}]: SR drops B after step 1 (unused later).
	drops1, err := Drops(SupplementaryRelations, p1, order, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := PlanM3(db, p1, order, drops1)
	if err != nil {
		t.Fatal(err)
	}
	// F2 = [v1{}, v2{B}]: SR must keep B after step 1 (used by v2(A,B)).
	drops2, err := Drops(SupplementaryRelations, p2, order, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := PlanM3(db, p2, order, drops2)
	if err != nil {
		t.Fatal(err)
	}

	// Paper: F1's first supplementary relation has 1 tuple, F2's has all 4.
	if f1.Steps[0].ResultSize != 1 {
		t.Errorf("F1 GSR1 = %d, want 1", f1.Steps[0].ResultSize)
	}
	if f2.Steps[0].ResultSize != 4 {
		t.Errorf("F2 GSR1 = %d, want 4", f2.Steps[0].ResultSize)
	}
	if len(drops1[0]) != 1 || drops1[0][0] != "B" {
		t.Errorf("F1 drops = %v", drops1)
	}
	if len(drops2[0]) != 0 {
		t.Errorf("F2 drops = %v", drops2)
	}
	// costM3(F1) < costM3(F2).
	if f1.Cost >= f2.Cost {
		t.Errorf("costM3(F1) = %d should be < costM3(F2) = %d", f1.Cost, f2.Cost)
	}
	// Reversing the order keeps P1's plan at least as good (paper's final
	// remark).
	rev := []int{1, 0}
	d1r, _ := Drops(SupplementaryRelations, p1, rev, nil, nil)
	f1r, err := PlanM3(db, p1, rev, d1r)
	if err != nil {
		t.Fatal(err)
	}
	d2r, _ := Drops(SupplementaryRelations, p2, rev, nil, nil)
	f2r, err := PlanM3(db, p2, rev, d2r)
	if err != nil {
		t.Fatal(err)
	}
	if f1r.Cost > f2r.Cost {
		t.Errorf("reversed: cost(P1)=%d > cost(P2)=%d", f1r.Cost, f2r.Cost)
	}
}

func TestExample61RenamingHeuristicClosesTheGap(t *testing.T) {
	db, vs, query := example61(t)
	p2 := q("q(A) :- v1(A, B), v2(A, B)")
	order := []int{0, 1}

	// Under the renaming heuristic, B can be dropped after step 1 of P2:
	// renaming B in the prefix yields q(A) :- v1(A,B'), v2(A,B), which is
	// still an equivalent rewriting (it is P1).
	drops, err := Drops(RenamingHeuristic, p2, order, query, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(drops[0]) != 1 || drops[0][0] != "B" {
		t.Fatalf("heuristic drops = %v, want B dropped at step 1", drops)
	}
	heur, err := PlanM3(db, p2, order, drops)
	if err != nil {
		t.Fatal(err)
	}

	srDrops, _ := Drops(SupplementaryRelations, p2, order, nil, nil)
	sr, err := PlanM3(db, p2, order, srDrops)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Cost >= sr.Cost {
		t.Errorf("heuristic cost %d should beat SR cost %d", heur.Cost, sr.Cost)
	}

	// The heuristic plan for P2 matches the best SR plan for P1.
	p1 := q("q(A) :- v1(A, B), v2(A, C)")
	d1, _ := Drops(SupplementaryRelations, p1, order, nil, nil)
	f1, err := PlanM3(db, p1, order, d1)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Cost != f1.Cost {
		t.Errorf("heuristic P2 cost %d != SR P1 cost %d", heur.Cost, f1.Cost)
	}
}

func TestDroppedJoinVariablePreservesAnswer(t *testing.T) {
	// Executing P2's heuristic plan must still produce the query's answer.
	db, vs, query := example61(t)
	p2 := q("q(A) :- v1(A, B), v2(A, B)")
	drops, err := Drops(RenamingHeuristic, p2, []int{0, 1}, query, vs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanM3(db, p2, []int{0, 1}, drops)
	if err != nil {
		t.Fatal(err)
	}
	// The final GSR projected to the head must equal the base answer.
	base, err := db.Evaluate(query)
	if err != nil {
		t.Fatal(err)
	}
	if base.Size() != 1 || !base.Contains(engine.Tuple{"1"}) {
		t.Fatalf("base answer = %v", base.SortedRows())
	}
	last := plan.Steps[len(plan.Steps)-1]
	if last.ResultSize != base.Size() {
		t.Errorf("final GSR size = %d, want %d", last.ResultSize, base.Size())
	}
}

func TestBestPlanM2MatchesExhaustive(t *testing.T) {
	vs := mustViews(t, `
		v1(M, D, C) :- car(M, D), loc(D, C).
		v2(S, M, C) :- part(S, M, C).
	`)
	db := mustDB(t, `
		car(m1, a). car(m2, a). car(m1, b). car(m3, b).
		loc(a, c1). loc(a, c2). loc(b, c2). loc(b, c3).
		part(s1, m1, c1). part(s2, m2, c2). part(s3, m1, c2).
		part(s4, m3, c3). part(s5, m1, c3).
	`, vs)
	p := q("q1(S, C) :- v1(M, a, C), v2(S, M, C)")
	dp, err := BestPlanM2(db, p)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := BestPlanM2Exhaustive(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Cost != ex.Cost {
		t.Errorf("DP cost %d != exhaustive cost %d", dp.Cost, ex.Cost)
	}
}

func TestPlanM2CostBreakdown(t *testing.T) {
	vs := mustViews(t, "v(A, B) :- e(A, B).")
	db := mustDB(t, "e(1, 2). e(1, 3). e(2, 3).", vs)
	p := q("q(A, B) :- v(A, B)")
	plan, err := PlanM2(db, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// cost = size(v) + size(IR1) = 3 + 3.
	if plan.Cost != 6 {
		t.Errorf("cost = %d, want 6", plan.Cost)
	}
}

func TestFilteringViewImprovesM2(t *testing.T) {
	// The paper's Section 5.1 claim with the car-loc-part P2/P3 pair: a
	// selective v3 lowers the M2 cost even though it covers no subgoal.
	vs := mustViews(t, `
		v1(M, D, C) :- car(M, D), loc(D, C).
		v2(S, M, C) :- part(S, M, C).
		v3(S) :- car(M, a), loc(a, C), part(S, M, C).
	`)
	facts := ""
	// 10 makes at dealer a, 10 cities for a: v1 has 100 a-rows.
	for i := 0; i < 10; i++ {
		facts += "car(m" + string(rune('0'+i)) + ", a). "
		facts += "loc(a, c" + string(rune('0'+i)) + "). "
	}
	// Exactly one part row joins with a's makes and cities; 99 rows do not.
	facts += "part(s0, m0, c0). "
	for i := 1; i < 100; i++ {
		facts += "part(sx" + itoa(i) + ", zz, yy). "
	}
	db := mustDB(t, facts, vs)
	if db.Relation("v3").Size() != 1 {
		t.Fatalf("v3 size = %d, want 1", db.Relation("v3").Size())
	}

	query := q("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)")
	p2 := q("q1(S, C) :- v1(M, a, C), v2(S, M, C)")
	p3 := q("q1(S, C) :- v3(S), v1(M, a, C), v2(S, M, C)")

	plan2, err := BestPlanM2(db, p2)
	if err != nil {
		t.Fatal(err)
	}
	plan3, err := BestPlanM2(db, p3)
	if err != nil {
		t.Fatal(err)
	}
	if plan3.Cost >= plan2.Cost {
		t.Errorf("P3 cost %d should beat P2 cost %d", plan3.Cost, plan2.Cost)
	}

	// ImproveWithFilters discovers the same improvement automatically.
	vset, err := views.ParseSet(`
		v1(M, D, C) :- car(M, D), loc(D, C).
		v2(S, M, C) :- part(S, M, C).
		v3(S) :- car(M, a), loc(a, C), part(S, M, C).
	`)
	if err != nil {
		t.Fatal(err)
	}
	cand := views.ComputeTuples(query, vset, nil)
	var filters []views.Tuple
	for _, c := range cand {
		if c.View.Name() == "v3" {
			filters = append(filters, c)
		}
	}
	res, err := ImproveWithFilters(db, p2, query, vs, filters)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 1 || res.Added[0].Pred != "v3" {
		t.Errorf("added = %v", res.Added)
	}
	if res.Plan.Cost != plan3.Cost {
		t.Errorf("filter plan cost %d != P3 cost %d", res.Plan.Cost, plan3.Cost)
	}
}

func TestImproveWithFiltersNoCandidates(t *testing.T) {
	db, vs, query := example61(t)
	p := q("q(A) :- v1(A, B), v2(A, B)")
	res, err := ImproveWithFilters(db, p, query, vs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 0 {
		t.Errorf("added = %v", res.Added)
	}
}

func TestBestPlanM3PicksBestOrder(t *testing.T) {
	db, vs, query := example61(t)
	p2 := q("q(A) :- v1(A, B), v2(A, B)")
	best, err := BestPlanM3(db, p2, RenamingHeuristic, query, vs)
	if err != nil {
		t.Fatal(err)
	}
	// Both orders under the heuristic allow dropping B; the best cost is
	// the minimum over both orders.
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		drops, err := Drops(RenamingHeuristic, p2, order, query, vs)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanM3(db, p2, order, drops)
		if err != nil {
			t.Fatal(err)
		}
		if best.Cost > plan.Cost {
			t.Errorf("BestPlanM3 %d worse than order %v at %d", best.Cost, order, plan.Cost)
		}
	}
}

func TestDropsNeverDropHeadVars(t *testing.T) {
	_, vs, query := example61(t)
	p := q("q(A) :- v1(A, B), v2(A, B)")
	drops, err := Drops(RenamingHeuristic, p, nil, query, vs)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range drops {
		for _, v := range step {
			if v == "A" {
				t.Error("head variable dropped")
			}
		}
	}
}

func TestDropsValidation(t *testing.T) {
	p := q("q(A) :- v1(A, B)")
	if _, err := Drops(RenamingHeuristic, p, nil, nil, nil); err == nil {
		t.Error("heuristic without query/views should error")
	}
	if _, err := Drops(SupplementaryRelations, p, []int{0, 1}, nil, nil); err == nil {
		t.Error("bad order should error")
	}
}

func TestPlanErrorsOnMissingRelation(t *testing.T) {
	db := engine.NewDatabase()
	p := q("q(A) :- v(A, B)")
	if _, err := PlanM2(db, p, nil); err == nil {
		t.Error("expected missing-relation error")
	}
	if _, err := BestPlanM2(db, p); err == nil {
		t.Error("expected missing-relation error")
	}
}

func TestModelString(t *testing.T) {
	if M1.String() != "M1" || M2.String() != "M2" || M3.String() != "M3" {
		t.Error("model names wrong")
	}
	if SupplementaryRelations.String() == RenamingHeuristic.String() {
		t.Error("strategy names collide")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}
