package cost

import (
	"fmt"
	"testing"

	"viewplan/internal/corecover"
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/views"
	"viewplan/internal/workload"
)

// bestPlanM3Exhaustive is the M3 oracle: every one of the n! subgoal
// orders, each with its own Drops annotation replayed through PlanM3,
// keeping the first strict minimum. It is what BestPlanM3 was before the
// branch-and-bound and shares nothing with the search but the drop rule
// and the join kernel.
func bestPlanM3Exhaustive(db *engine.Database, p *cq.Query, strategy DropStrategy, q *cq.Query, vs *views.Set) (*Plan, error) {
	var best *Plan
	err := forEachPermutation(len(p.Body), func(order []int) error {
		drops, err := Drops(strategy, p, order, q, vs)
		if err != nil {
			return err
		}
		plan, err := PlanM3(db, p, order, drops)
		if err != nil {
			return err
		}
		if best == nil || plan.Cost < best.Cost {
			best = plan
		}
		return nil
	})
	return best, err
}

// m3Case is one rewriting to order, with what the renaming heuristic
// needs to test its drops.
type m3Case struct {
	name string
	db   *engine.Database
	p, q *cq.Query
	vs   *views.Set
}

// m3Corpus draws star and chain instances of 3 to 5 subgoals with hidden
// variables (so the two drop strategies differ) and adds hand-written
// rewritings whose subgoals repeat a variable, the case where a dropped
// variable's later occurrence rebinds inside one atom.
func m3Corpus(t *testing.T) []m3Case {
	t.Helper()
	var cases []m3Case
	for _, shape := range []workload.Shape{workload.Star, workload.Chain} {
		for seed := int64(1); seed <= 18; seed++ {
			inst, err := workload.Generate(workload.Config{
				Shape:            shape,
				QuerySubgoals:    3 + int(seed%3),
				NumViews:         14,
				Nondistinguished: int(seed % 3),
				Seed:             seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := corecover.CoreCoverStar(inst.Query, inst.Views, corecover.Options{MaxRewritings: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rewritings) == 0 {
				continue
			}
			db := engine.NewDatabase()
			engine.NewDataGen(seed+7, 6).FillForQuery(db, inst.Query, 30)
			if err := db.MaterializeViews(inst.Views); err != nil {
				t.Fatal(err)
			}
			for i, p := range res.Rewritings {
				if len(p.Body) >= 2 && len(p.Body) <= 5 {
					cases = append(cases, m3Case{fmt.Sprintf("%v/seed %d/rewriting %d", shape, seed, i), db, p, inst.Query, inst.Views})
				}
			}
		}
	}
	repeated := []struct{ views, query, rewriting string }{
		{
			`v1(A, B) :- r(A, A), s(B, B).
			 v2(A, B) :- t(A, B), s(B, B).`,
			"q(A) :- r(A, A), t(A, B), s(B, B)",
			"q(A) :- v1(A, B), v2(A, B)",
		},
		{
			`w1(A, B) :- r(A, B).
			 w2(A, B) :- s(A, B).
			 w3(A, B) :- t(A, B).
			 w4(A, B) :- r(A, B), s(B, B).`,
			"q(A, C) :- r(A, B), s(B, B), t(B, C)",
			"q(A, C) :- w1(A, B), w2(B, B), w3(B, C), w4(A, B)",
		},
		{
			`w1(A, B) :- r(A, B).
			 w2(A, B) :- s(A, B).
			 w3(A, B) :- t(A, B).`,
			"q(A) :- r(A, A), s(A, B), t(B, B), r(B, C)",
			"q(A) :- w1(A, A), w2(A, B), w3(B, B), w1(B, C)",
		},
	}
	for i, fx := range repeated {
		vs := mustViews(t, fx.views)
		query, p := q(fx.query), q(fx.rewriting)
		if !vs.IsEquivalentRewriting(p, query) {
			t.Fatalf("repeated-variable fixture %d is not an equivalent rewriting", i)
		}
		db := engine.NewDatabase()
		engine.NewDataGen(int64(40+i), 4).FillForQuery(db, query, 14)
		if err := db.MaterializeViews(vs); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, m3Case{fmt.Sprintf("repeated variable %d", i), db, p, query, vs})
	}
	return cases
}

// The branch-and-bound finds the exhaustive optimum under both drop
// strategies, with and without an IR cache, and the plan it returns is
// the plan of its order: replaying Drops and PlanM3 on that order gives
// the same drops, schemas, sizes and cost step by step. A bound at the
// optimum finds nothing, a bound just above it finds the optimum.
func TestBestPlanM3MatchesExhaustive(t *testing.T) {
	cases := m3Corpus(t)
	if len(cases) < 30 {
		t.Fatalf("corpus has only %d rewritings", len(cases))
	}
	heuristicMattered := false
	for _, tc := range cases {
		var costs [2]int
		for _, strategy := range []DropStrategy{SupplementaryRelations, RenamingHeuristic} {
			want, err := bestPlanM3Exhaustive(tc.db, tc.p, strategy, tc.q, tc.vs)
			if err != nil {
				t.Fatalf("%s: oracle: %v", tc.name, err)
			}
			costs[strategy] = want.Cost
			for _, cached := range []bool{false, true} {
				if cached {
					tc.db.SetIRCache(engine.NewIRCache())
				}
				got, err := BestPlanM3(tc.db, tc.p, strategy, tc.q, tc.vs)
				none, errNone := BestPlanM3Below(tc.db, tc.p, strategy, tc.q, tc.vs, want.Cost)
				just, errJust := BestPlanM3Below(tc.db, tc.p, strategy, tc.q, tc.vs, want.Cost+1)
				tc.db.SetIRCache(nil)
				if err != nil || errNone != nil || errJust != nil {
					t.Fatalf("%s %v: %v / %v / %v", tc.name, strategy, err, errNone, errJust)
				}
				if got.Cost != want.Cost {
					t.Errorf("%s %v (cache %v): cost %d, exhaustive optimum %d\n%s\n%s", tc.name, strategy, cached, got.Cost, want.Cost, got.Tree(), want.Tree())
					continue
				}
				if none != nil {
					t.Errorf("%s %v: bound %d at the optimum still returned a plan of cost %d", tc.name, strategy, want.Cost, none.Cost)
				}
				if just == nil || just.Tree() != got.Tree() {
					t.Errorf("%s %v: bound %d just above the optimum did not return the unbounded plan", tc.name, strategy, want.Cost+1)
				}
				drops, err := Drops(strategy, tc.p, got.Order, tc.q, tc.vs)
				if err != nil {
					t.Fatal(err)
				}
				replay, err := PlanM3(tc.db, tc.p, got.Order, drops)
				if err != nil {
					t.Fatal(err)
				}
				if got.Tree() != replay.Tree() {
					t.Errorf("%s %v: plan differs from the replay of its own order %v:\n--- search ---\n%s\n--- Drops + PlanM3 ---\n%s",
						tc.name, strategy, got.Order, got.Tree(), replay.Tree())
				}
			}
		}
		if costs[RenamingHeuristic] < costs[SupplementaryRelations] {
			heuristicMattered = true
		}
		if costs[RenamingHeuristic] > costs[SupplementaryRelations] {
			t.Errorf("%s: renaming heuristic optimum %d above supplementary relations' %d", tc.name, costs[RenamingHeuristic], costs[SupplementaryRelations])
		}
	}
	t.Logf("%d rewritings × 2 strategies × cache on/off", len(cases))
	if !heuristicMattered {
		t.Error("the renaming heuristic never beat supplementary relations: the corpus does not exercise its drops")
	}
}
