package cost

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"viewplan/internal/corecover"
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/views"
	"viewplan/internal/workload"
)

// bestPlanM3Exhaustive is the M3 oracle: every one of the n! subgoal
// orders, each with its own Drops annotation replayed through PlanM3,
// keeping the first strict minimum. It shares nothing with the lattice
// search but the drop rule, PlanM3 and the join kernel.
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
// rewritings: three whose subgoals repeat a variable, the case where a
// dropped variable's later occurrence rebinds inside one atom, and one
// where the renaming heuristic reaches a subgoal set in two states of
// different sizes. In q(A) :- va(A, X), vb(X), vc(A, X), X may be renamed
// apart in va alone or in va and vb together, but not in vb alone: after
// va then vb the state keeps X, unlinked from va's; after vb then va it
// has dropped X, and va and vb are still joined on it.
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
	fixtures := []struct{ name, views, query, rewriting string }{
		{
			"repeated variable 0",
			`v1(A, B) :- r(A, A), s(B, B).
			 v2(A, B) :- t(A, B), s(B, B).`,
			"q(A) :- r(A, A), t(A, B), s(B, B)",
			"q(A) :- v1(A, B), v2(A, B)",
		},
		{
			"repeated variable 1",
			`w1(A, B) :- r(A, B).
			 w2(A, B) :- s(A, B).
			 w3(A, B) :- t(A, B).
			 w4(A, B) :- r(A, B), s(B, B).`,
			"q(A, C) :- r(A, B), s(B, B), t(B, C)",
			"q(A, C) :- w1(A, B), w2(B, B), w3(B, C), w4(A, B)",
		},
		{
			"repeated variable 2",
			`w1(A, B) :- r(A, B).
			 w2(A, B) :- s(A, B).
			 w3(A, B) :- t(A, B).`,
			"q(A) :- r(A, A), s(A, B), t(B, B), r(B, C)",
			"q(A) :- w1(A, A), w2(A, B), w3(B, B), w1(B, C)",
		},
		{
			"renaming order",
			`va(A, X) :- p(A, X).
			 vb(X) :- s(X).
			 vc(A, X, Z) :- p(A, X), u(A, Z).`,
			"q(A, Z) :- p(A, X), s(X), u(A, Z)",
			"q(A, Z) :- va(A, X), vb(X), vc(A, X, Z)",
		},
	}
	for i, fx := range fixtures {
		vs := mustViews(t, fx.views)
		query, p := q(fx.query), q(fx.rewriting)
		if !vs.IsEquivalentRewriting(p, query) {
			t.Fatalf("fixture %q is not an equivalent rewriting", fx.name)
		}
		db := engine.NewDatabase()
		engine.NewDataGen(int64(40+i), 4).FillForQuery(db, query, 14)
		if err := db.MaterializeViews(vs); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, m3Case{fx.name, db, p, query, vs})
	}
	return cases
}

// The lattice search finds the exhaustive optimum under both drop
// strategies, with a fresh memo per call and with one memo shared by
// every search over the same database, and the plan it returns is
// the plan of its order: replaying Drops and PlanM3 on that order gives
// the same drops, schemas, sizes and cost step by step. A bound at the
// optimum finds nothing, a bound just above it finds the optimum.
func TestBestPlanM3MatchesExhaustive(t *testing.T) {
	cases := m3Corpus(t)
	if len(cases) < 30 {
		t.Fatalf("corpus has only %d rewritings", len(cases))
	}
	heuristicMattered := false
	memos := map[*engine.Database]*Memo{}
	for _, tc := range cases {
		if memos[tc.db] == nil {
			memos[tc.db] = new(Memo)
		}
		var costs [2]int
		for _, strategy := range []DropStrategy{SupplementaryRelations, RenamingHeuristic} {
			want, err := bestPlanM3Exhaustive(tc.db, tc.p, strategy, tc.q, tc.vs)
			if err != nil {
				t.Fatalf("%s: oracle: %v", tc.name, err)
			}
			costs[strategy] = want.Cost
			for _, shared := range []bool{false, true} {
				memo := func() *Memo {
					if shared {
						return memos[tc.db]
					}
					return new(Memo)
				}
				got, err := BestPlanM3Below(tc.db, tc.p, strategy, tc.q, tc.vs, math.MaxInt, memo())
				none, errNone := BestPlanM3Below(tc.db, tc.p, strategy, tc.q, tc.vs, want.Cost, memo())
				just, errJust := BestPlanM3Below(tc.db, tc.p, strategy, tc.q, tc.vs, want.Cost+1, memo())
				if err != nil || errNone != nil || errJust != nil {
					t.Fatalf("%s %v: %v / %v / %v", tc.name, strategy, err, errNone, errJust)
				}
				if got.Cost != want.Cost {
					t.Errorf("%s %v (shared memo %v): cost %d, exhaustive optimum %d\n%s\n%s", tc.name, strategy, shared, got.Cost, want.Cost, got.Tree(), want.Tree())
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
	t.Logf("%d rewritings × 2 strategies × fresh/shared memo", len(cases))
	if !heuristicMattered {
		t.Error("the renaming heuristic never beat supplementary relations: the corpus does not exercise its drops")
	}
}

// The premise of the M3 lattice, checked on every prefix of every order
// of the corpus rather than through the search: a prefix's GSR is
// determined by its gsrKey (the subgoal set with the drops' renames
// applied, and the retained variables), under both drop rules. Under
// supplementary relations no prefix renames anything, so the key is the
// subgoal set; under the renaming heuristic some sets carry several keys,
// which is what the search's keyed states are for.
func TestGSRKeyDeterminesRelation(t *testing.T) {
	prefixes, severalRH := 0, 0
	for _, tc := range m3Corpus(t) {
		n := len(tc.p.Body)
		keyer, vars := newMaskKeyer(tc.p.Body), tc.p.Vars()
		for _, strategy := range []DropStrategy{SupplementaryRelations, RenamingHeuristic} {
			gsrs := map[string]string{}
			keysOf := map[int]map[string]bool{}
			err := forEachPermutation(n, func(order []int) error {
				drops, err := Drops(strategy, tc.p, order, tc.q, tc.vs)
				if err != nil {
					return err
				}
				gen := cq.NewFreshGen("_T", vars)
				atoms, cur, retained, mask := tc.p.Body, engine.UnitVarRelation(), make(cq.VarSet), 0
				for step, idx := range order {
					mask |= 1 << uint(idx)
					tc.p.Body[idx].Vars(retained)
					for _, v := range drops[step] {
						delete(retained, v)
					}
					atoms = renameDropped(atoms, mask, drops[step], gen)
					keep := retained.Sorted()
					if cur, err = tc.db.JoinStep(cur, tc.p.Body[idx], keep); err != nil {
						return err
					}
					key := keyer.gsrKey(mask, atoms, keep, vars)
					var keys []string
					for _, row := range cur.Rows() {
						keys = append(keys, row.Key())
					}
					sort.Strings(keys)
					rows := fmt.Sprint(cur.Schema, keys)
					if seen, ok := gsrs[key]; ok && seen != rows {
						t.Errorf("%s %v: prefix %v of order %v shares its key with a prefix of another GSR\n%s\n%s", tc.name, strategy, order[:step+1], order, seen, rows)
					}
					gsrs[key] = rows
					if keysOf[mask] == nil {
						keysOf[mask] = map[string]bool{}
					}
					keysOf[mask][key] = true
					prefixes++
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for mask, keys := range keysOf {
				if len(keys) > 1 {
					if strategy == SupplementaryRelations {
						t.Errorf("%s: subgoal set %b has %d supplementary-relation keys", tc.name, mask, len(keys))
					} else {
						severalRH++
					}
				}
			}
		}
	}
	t.Logf("%d prefixes; %d renaming-heuristic subgoal sets with several states", prefixes, severalRH)
	if severalRH == 0 {
		t.Error("no subgoal set carries several renaming-heuristic states: the corpus does not exercise keyed states")
	}
}

// A rewriting wider than the order searches once allowed M3 (8 subgoals):
// a 10-subgoal star over single-subgoal views. Under supplementary
// relations it plans, no dearer than its M2 plan, and its plan is the
// replay of its own order.
func TestBestPlanM3WideRewriting(t *testing.T) {
	inst, err := workload.Generate(workload.Config{Shape: workload.Star, QuerySubgoals: 10, NumViews: 100, MaxViewSubgoals: 1, Nondistinguished: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := corecover.CoreCoverStar(inst.Query, inst.Views, corecover.Options{MaxRewritings: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritings) == 0 {
		t.Fatal("no rewriting")
	}
	p := res.Rewritings[0]
	if n := len(p.Body); n < 9 || n > 12 {
		t.Fatalf("rewriting has %d subgoals, want 9-12", n)
	}
	db := engine.NewDatabase()
	engine.NewDataGen(1, 20).FillForQuery(db, inst.Query, 40)
	if err := db.MaterializeViews(inst.Views); err != nil {
		t.Fatal(err)
	}
	m3, err := BestPlanM3(db, p, SupplementaryRelations, inst.Query, inst.Views)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BestPlanM2(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Cost > m2.Cost {
		t.Errorf("M3 cost %d above M2's %d", m3.Cost, m2.Cost)
	}
	drops, err := Drops(SupplementaryRelations, p, m3.Order, inst.Query, inst.Views)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := PlanM3(db, p, m3.Order, drops)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Tree() != replay.Tree() {
		t.Errorf("plan differs from the replay of its own order:\n%s\n%s", m3.Tree(), replay.Tree())
	}
	t.Logf("%d subgoals: M3 %d, M2 %d", len(p.Body), m3.Cost, m2.Cost)
}
