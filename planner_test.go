package viewplan_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"viewplan"
)

func plannerFixture(t *testing.T) (*viewplan.Database, *viewplan.Query, *viewplan.ViewSet) {
	t.Helper()
	vs, err := viewplan.ParseViews(`
		v1(M, D, C) :- car(M, D), loc(D, C).
		v2(S, M, C) :- part(S, M, C).
		v3(S) :- car(M, a), loc(a, C), part(S, M, C).
		v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
	`)
	if err != nil {
		t.Fatal(err)
	}
	q := viewplan.MustParseQuery("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)")
	db := viewplan.NewDatabase()
	var facts strings.Builder
	for i := 0; i < 10; i++ {
		facts.WriteString("car(m" + strconv.Itoa(i) + ", a). loc(a, c" + strconv.Itoa(i) + "). ")
	}
	facts.WriteString("part(s0, m0, c0). ")
	for i := 1; i < 60; i++ {
		facts.WriteString("part(sx" + strconv.Itoa(i) + ", zz, yy). ")
	}
	if err := db.LoadFacts(facts.String()); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		t.Fatal(err)
	}
	return db, q, vs
}

func TestPlanQueryM1(t *testing.T) {
	_, q, vs := plannerFixture(t)
	res, err := viewplan.PlanQuery(nil, q, vs, viewplan.PlanRequest{Model: viewplan.M1})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Cost != 1 || res.Rewriting.Body[0].Pred != "v4" {
		t.Errorf("M1 result = %+v", res)
	}
	if res.Plan != nil {
		t.Error("M1 should not build a physical plan")
	}
}

func TestPlanQueryM2PicksCheapest(t *testing.T) {
	db, q, vs := plannerFixture(t)
	res, err := viewplan.PlanQuery(db, q, vs, viewplan.PlanRequest{Model: viewplan.M2})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Plan == nil {
		t.Fatal("no plan")
	}
	// v4 holds exactly the answer (1 row), so the v4 rewriting wins.
	if res.Rewriting.Body[0].Pred != "v4" {
		t.Errorf("chosen = %s (cost %d)", res.Rewriting, res.Cost)
	}
	if res.Considered != 2 {
		t.Errorf("considered = %d, want 2 (CoreCover* rewritings)", res.Considered)
	}
}

func TestPlanQueryM2FiltersApply(t *testing.T) {
	db, q, vs := plannerFixture(t)
	// Remove v4 so the v1⋈v2 rewriting must win, and the selective v3
	// filter should be added.
	vs2, err := vs.Subset([]string{"v1", "v2", "v3"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := viewplan.PlanQuery(db, q, vs2, viewplan.PlanRequest{Model: viewplan.M2})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no plan")
	}
	if len(res.FiltersAdded) != 1 || res.FiltersAdded[0].Pred != "v3" {
		t.Errorf("filters = %v (cost %d)", res.FiltersAdded, res.Cost)
	}
	noFilters, err := viewplan.PlanQuery(db, q, vs2, viewplan.PlanRequest{Model: viewplan.M2, DisableFilters: true})
	if err != nil {
		t.Fatal(err)
	}
	if noFilters.Cost <= res.Cost {
		t.Errorf("filters did not help: %d vs %d", res.Cost, noFilters.Cost)
	}
}

func TestPlanQueryM3(t *testing.T) {
	db, q, vs := plannerFixture(t)
	res, err := viewplan.PlanQuery(db, q, vs, viewplan.PlanRequest{Model: viewplan.M3})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Plan == nil || res.Plan.Model != viewplan.M3 {
		t.Fatalf("M3 result = %+v", res)
	}
	// M3 plans never cost more than the M2 plan of the same rewriting.
	m2, err := viewplan.PlanQuery(db, q, vs, viewplan.PlanRequest{Model: viewplan.M2, DisableFilters: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > m2.Cost {
		t.Errorf("M3 cost %d exceeds M2 cost %d", res.Cost, m2.Cost)
	}
}

// TestPlanQueryM3DefaultStrategy pins which M3 drop rule a zero-value
// PlanRequest gets, on Example 6.1 (examples/attributedrop's data), where
// P2 = q(A) :- v1(A, B), v2(A, B) is the only CoreCover* candidate. The
// zero value is SupplementaryRelations: B stays in P2's first GSR because
// v2 still uses it, the paper's cost 13. The renaming heuristic drops B
// early and reaches 10. Switching the default must change this test.
func TestPlanQueryM3DefaultStrategy(t *testing.T) {
	vs, err := viewplan.ParseViews(`
		v1(A, B) :- r(A, A), s(B, B).
		v2(A, B) :- t(A, B), s(B, B).
	`)
	if err != nil {
		t.Fatal(err)
	}
	q := viewplan.MustParseQuery("q(A) :- r(A, A), t(A, B), s(B, B)")
	db := viewplan.NewDatabase()
	if err := db.LoadFacts("r(1, 1). s(2, 2). s(4, 4). s(6, 6). s(8, 8). t(1, 2). t(3, 4). t(5, 6). t(7, 8)."); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		t.Fatal(err)
	}
	plan := func(req viewplan.PlanRequest) *viewplan.PlanResult {
		t.Helper()
		req.Model = viewplan.M3
		res, err := viewplan.PlanQuery(db, q, vs, req)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil || res.Plan == nil {
			t.Fatalf("no M3 plan for %+v", req)
		}
		return res
	}
	def := plan(viewplan.PlanRequest{})
	sr := plan(viewplan.PlanRequest{Strategy: viewplan.SupplementaryRelations})
	if def.Plan.String() != sr.Plan.String() || def.Rewriting.String() != sr.Rewriting.String() {
		t.Errorf("zero-value Strategy plans\n  %s: %s\nexplicit SupplementaryRelations plans\n  %s: %s",
			def.Rewriting, def.Plan, sr.Rewriting, sr.Plan)
	}
	steps := def.Plan.Steps
	if def.Cost != 13 || len(steps) != 2 || fmt.Sprint(steps[0].Dropped) != "[]" || fmt.Sprint(steps[1].Dropped) != "[B]" {
		t.Errorf("default M3 plan = %s; want cost 13 with drop[] then drop[B]", def.Plan)
	}
	if rh := plan(viewplan.PlanRequest{Strategy: viewplan.RenamingHeuristic}); rh.Cost != 10 {
		t.Errorf("RenamingHeuristic M3 plan = %s; want the paper's cost 10", rh.Plan)
	}
}

func TestPlanQueryNoRewriting(t *testing.T) {
	vs, err := viewplan.ParseViews("v1(M, D, C) :- car(M, D), loc(D, C).")
	if err != nil {
		t.Fatal(err)
	}
	q := viewplan.MustParseQuery("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)")
	res, err := viewplan.PlanQuery(nil, q, vs, viewplan.PlanRequest{Model: viewplan.M1})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Errorf("expected nil result, got %+v", res)
	}
}

func TestPlanQueryM2NeedsDatabase(t *testing.T) {
	_, q, vs := plannerFixture(t)
	if _, err := viewplan.PlanQuery(nil, q, vs, viewplan.PlanRequest{Model: viewplan.M2}); err == nil {
		t.Error("M2 without a database accepted")
	}
}
