package viewplan_test

import (
	"fmt"
	"strings"
	"testing"

	"viewplan"
)

const paperViews = `
	v1(M, D, C) :- car(M, D), loc(D, C).
	v2(S, M, C) :- part(S, M, C).
	v3(S) :- car(M, a), loc(a, C), part(S, M, C).
	v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
	v5(M, D, C) :- car(M, D), loc(D, C).
`

const paperQuery = "q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)"

func TestPublicAPIEndToEnd(t *testing.T) {
	q := viewplan.MustParseQuery(paperQuery)
	vs, err := viewplan.ParseViews(paperViews)
	if err != nil {
		t.Fatal(err)
	}

	res, err := viewplan.FindGMRs(q, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritings) != 1 {
		t.Fatalf("GMRs = %v", res.Rewritings)
	}
	gmr := res.Rewritings[0]
	if viewplan.M1Cost(gmr) != 1 {
		t.Errorf("GMR cost = %d", viewplan.M1Cost(gmr))
	}
	if !viewplan.IsEquivalentRewriting(gmr, q, vs) {
		t.Error("GMR not equivalent")
	}

	star, err := viewplan.FindMinimalRewritings(q, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(star.Rewritings) != 2 {
		t.Errorf("CoreCover* rewritings = %v", star.Rewritings)
	}
	if len(star.FilterClasses()) != 1 {
		t.Errorf("filters = %v", star.FilterClasses())
	}

	ok, err := viewplan.HasRewriting(q, vs)
	if err != nil || !ok {
		t.Errorf("HasRewriting = %v, %v", ok, err)
	}
}

// seventeenAtomPair is two non-equivalent views whose minimized bodies
// exceed the canonical labeling's 16-atom cap and share every atom shape:
// v1 is the path X0 → … → X17, v2 the path X0 → … → X16 plus the edge
// X17 → X0, both with head (X0, X17). Both are cores.
func seventeenAtomPair() (v1, v2 string) {
	var p1, p2 []string
	for j := 0; j < 17; j++ {
		p1 = append(p1, fmt.Sprintf("r(X%d, X%d)", j, j+1))
	}
	p2 = append(append(p2, p1[:16]...), "r(X17, X0)")
	return strings.Join(p1, ", "), strings.Join(p2, ", ")
}

// Neither view may be grouped with the other: a representative that is
// not equivalent to its class mates hides their rewritings. Each view's
// body as a query has exactly its view as GMR, whichever view is listed
// first, with and without a compiled catalog.
func TestSeventeenAtomViewsNotMerged(t *testing.T) {
	b1, b2 := seventeenAtomPair()
	defs := map[string]string{
		"v1": "v1(X0, X17) :- " + b1 + ".",
		"v2": "v2(X0, X17) :- " + b2 + ".",
	}
	for _, order := range [][2]string{{"v1", "v2"}, {"v2", "v1"}} {
		vs, err := viewplan.ParseViews(defs[order[0]] + "\n" + defs[order[1]])
		if err != nil {
			t.Fatal(err)
		}
		cat, err := viewplan.CompileViews(vs, viewplan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cat.NumClasses() != 2 {
			t.Fatalf("order %v: catalog has %d view classes, want 2", order, cat.NumClasses())
		}
		for view, body := range map[string]string{"v1": b1, "v2": b2} {
			q := viewplan.MustParseQuery("q(X0, X17) :- " + body)
			want := "q(X0, X17) :- " + view + "(X0, X17)"
			cold, err := viewplan.FindGMRs(q, vs)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := viewplan.FindGMRsWith(q, nil, viewplan.Options{Catalog: cat})
			if err != nil {
				t.Fatal(err)
			}
			for path, res := range map[string]*viewplan.Result{"FindGMRs": cold, "catalog": warm} {
				if len(res.Rewritings) != 1 || res.Rewritings[0].String() != want {
					t.Errorf("order %v, %s's body, %s: rewritings %v, want [%s]",
						order, view, path, res.Rewritings, want)
				}
			}
		}
	}
}

func TestPublicAPIContainment(t *testing.T) {
	a := viewplan.MustParseQuery("q(X) :- e(X, Y), e(Y, Z)")
	b := viewplan.MustParseQuery("q(X) :- e(X, Y)")
	if !viewplan.Contains(a, b) || viewplan.Contains(b, a) {
		t.Error("containment wrong")
	}
	m := viewplan.Minimize(viewplan.MustParseQuery("q(X) :- e(X, Y), e(X, Z)"))
	if len(m.Body) != 1 {
		t.Errorf("minimize = %s", m)
	}
}

func TestPublicAPIExpand(t *testing.T) {
	vs, _ := viewplan.ParseViews(paperViews)
	p := viewplan.MustParseQuery("q1(S, C) :- v4(M, a, C, S)")
	exp, err := viewplan.Expand(p, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Body) != 3 {
		t.Errorf("expansion = %s", exp)
	}
	if !viewplan.Equivalent(exp, viewplan.MustParseQuery(paperQuery)) {
		t.Errorf("expansion %s not equivalent to query", exp)
	}
}

func TestPublicAPIViewTuples(t *testing.T) {
	q := viewplan.MustParseQuery(paperQuery)
	vs, _ := viewplan.ParseViews(paperViews)
	tuples := viewplan.ViewTuples(q, vs)
	if len(tuples) != 5 {
		t.Errorf("tuples = %v", tuples)
	}
}

func TestPublicAPIEngineAndCosts(t *testing.T) {
	q := viewplan.MustParseQuery(paperQuery)
	vs, _ := viewplan.ParseViews(paperViews)
	db := viewplan.NewDatabase()
	err := db.LoadFacts(`
		car(honda, a). car(toyota, a).
		loc(a, sf). loc(a, la).
		part(s1, honda, sf). part(s2, toyota, la). part(s3, honda, la).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		t.Fatal(err)
	}

	res, err := viewplan.FindMinimalRewritings(q, vs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := db.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Rewritings {
		got, err := db.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != base.Size() {
			t.Errorf("%s: %d rows, want %d", p, got.Size(), base.Size())
		}
		plan, err := viewplan.BestPlanM2(db, p)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Cost <= 0 {
			t.Errorf("plan cost = %d", plan.Cost)
		}
		m3, err := viewplan.BestPlanM3(db, p, viewplan.RenamingHeuristic, q, vs)
		if err != nil {
			t.Fatal(err)
		}
		if m3.Cost > plan.Cost {
			t.Errorf("M3 with drops (%d) should not cost more than M2 (%d)", m3.Cost, plan.Cost)
		}
	}
}

func TestPublicAPIImproveWithFilters(t *testing.T) {
	q := viewplan.MustParseQuery(paperQuery)
	vs, _ := viewplan.ParseViews(paperViews)
	db := viewplan.NewDatabase()
	if err := db.LoadFacts("car(honda, a). loc(a, sf). part(s1, honda, sf)."); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		t.Fatal(err)
	}
	res, err := viewplan.FindMinimalRewritings(q, vs)
	if err != nil {
		t.Fatal(err)
	}
	var candidates []viewplan.ViewTuple
	for _, fc := range res.FilterClasses() {
		candidates = append(candidates, fc.Members...)
	}
	p := viewplan.MustParseQuery("q1(S, C) :- v1(M, a, C), v2(S, M, C)")
	fr, err := viewplan.ImproveWithFilters(db, p, q, vs, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Plan == nil || fr.Rewriting == nil {
		t.Error("filter result incomplete")
	}
}
