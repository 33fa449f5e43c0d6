package viewplan

import (
	"math"
	"runtime"
	"testing"
	"time"

	"viewplan/internal/corecover"
	"viewplan/internal/cost"
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
	"viewplan/internal/workload"
)

// referencePlanQuery is PlanQuery's candidate loop without the
// incumbent: every CoreCover* candidate ordered with no bound, the first
// strict minimum kept, then (M2) the Section 5.1 filter pass with every
// extension ordered with no bound, each search through memo(). It
// returns the chosen rewriting and its cost, or nil when the query has no
// rewriting.
func referencePlanQuery(t *testing.T, db *Database, inst *workload.Instance, model CostModel, strategy DropStrategy, maxRewritings int, memo func() *cost.Memo) (*Query, int) {
	t.Helper()
	q, vs := inst.Query, inst.Views
	res, err := corecover.CoreCoverStar(q, vs, corecover.Options{MaxRewritings: maxRewritings})
	if err != nil {
		t.Fatal(err)
	}
	var best *Query
	bestCost := 0
	for _, p := range res.Rewritings {
		var plan *Plan
		if model == M3 {
			plan, err = cost.BestPlanM3Below(db, p, strategy, q, vs, math.MaxInt, memo())
		} else {
			plan, err = cost.BestPlanM2Below(db, p, math.MaxInt, memo())
		}
		if err != nil || plan == nil {
			t.Fatal(plan, err)
		}
		if best == nil || plan.Cost < bestCost {
			best, bestCost = p, plan.Cost
		}
	}
	if best == nil || model != M2 {
		return best, bestCost
	}
	var candidates []ViewTuple
	for _, fc := range res.FilterClasses() {
		candidates = append(candidates, fc.Members...)
	}
	for improved := true; improved; {
		improved = false
		for _, cand := range candidates {
			if cq.ContainsAtom(best.Body, cand.Atom) {
				continue
			}
			ext := best.Clone()
			ext.Body = append(ext.Body, cand.Atom.Clone())
			if !vs.IsEquivalentRewriting(ext, q) {
				continue
			}
			plan, err := cost.BestPlanM2Below(db, ext, math.MaxInt, memo())
			if err != nil || plan == nil {
				t.Fatal(plan, err)
			}
			if plan.Cost < bestCost {
				best, bestCost, improved = ext, plan.Cost, true
				break
			}
		}
	}
	return best, bestCost
}

// The request-wide incumbent prunes work, never the answer: over seeded
// star and chain instances under both data-dependent models, PlanQuery
// picks the rewriting, at the cost, that ordering every candidate with
// no bound picks — with a memo shared by all of the reference's searches
// and with a fresh one per search — while popping fewer lattice states
// than that reference does.
func TestPlanQueryIncumbentKeepsChoice(t *testing.T) {
	planned := 0
	var searched, searchedUnbounded int64
	for _, shape := range []workload.Shape{workload.Star, workload.Chain} {
		for i := 0; i < 30; i++ {
			inst, err := workload.Generate(workload.Config{
				Shape:            shape,
				QuerySubgoals:    3 + i%3,
				NumViews:         20 + 5*(i%5),
				Nondistinguished: i % 2,
				Seed:             int64(7000*int(shape+1) + i),
			})
			if err != nil {
				t.Fatal(err)
			}
			db := NewDatabase()
			engine.NewDataGen(int64(90+i), 10).FillForQuery(db, inst.Query, 20)
			if err := db.MaterializeViews(inst.Views); err != nil {
				t.Fatal(err)
			}
			strategy := DropStrategy(i / 2 % 2)
			for _, model := range []CostModel{M2, M3} {
				tr := NewTracer()
				got, err := PlanQuery(db, inst.Query, inst.Views, PlanRequest{Model: model, Strategy: strategy, MaxRewritings: 12, Tracer: tr})
				if err != nil {
					t.Fatalf("%v %d %v: %v", shape, i, model, err)
				}
				memo := new(cost.Memo)
				fresh := func() *cost.Memo { return new(cost.Memo) }
				shared := func() *cost.Memo { return memo }
				ref := NewTracer()
				for _, memoFor := range []func() *cost.Memo{fresh, shared} {
					db.SetTracer(ref)
					want, wantCost := referencePlanQuery(t, db, inst, model, strategy, 12, memoFor)
					db.SetTracer(nil)
					if (got == nil) != (want == nil) {
						t.Fatalf("%v %d %v: PlanQuery found a plan: %v, reference: %v", shape, i, model, got != nil, want != nil)
					}
					if got != nil && (got.Rewriting.String() != want.String() || got.Cost != wantCost) {
						t.Errorf("%v %d %v: PlanQuery chose\n  %s at %d\nthe unbounded reference\n  %s at %d",
							shape, i, model, got.Rewriting, got.Cost, want, wantCost)
					}
				}
				if got == nil {
					continue
				}
				planned++
				searched += tr.Counter(obs.CtrOptStates)
				// A memo changes no size the search sees, so both reference
				// runs pop the same states.
				searchedUnbounded += ref.Counter(obs.CtrOptStates) / 2
			}
		}
	}
	if planned < 80 {
		t.Errorf("only %d of 120 (instance, model) pairs had a rewriting; the corpus is too thin", planned)
	}
	if searched >= searchedUnbounded {
		t.Errorf("PlanQuery popped %d states, the unbounded reference %d: the incumbent is not being exercised", searched, searchedUnbounded)
	}
	t.Logf("%d plans; states popped: %d bounded, %d unbounded", planned, searched, searchedUnbounded)
}

// A former known limit, pinned: M2 planning of the three-hop chain over
// identity views used to materialize the 10k×40k cross product of the
// two end relations (and its dedup set) while relaxing the subset
// lattice, and died at any memory cap. Counting that subset instead of
// building it makes the request ordinary.
func TestPlanQueryExecChain10kWithinBudget(t *testing.T) {
	db := NewDatabase()
	q, err := workload.ExecChain(db, workload.ExecConfig{Keys: 10000, FanOut: 4, Heads: 8})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := ParseViews("v1(A, B) :- e1(A, B).\nv2(A, B) :- e2(A, B).\nv3(A, B) :- e3(A, B).")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := PlanQuery(db, q, vs, PlanRequest{Model: M2, Execute: true})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Cost != 180000 {
		t.Fatalf("plan = %+v, want cost 180000 (3 views of 10k+40k+40k rows, intermediates of 10k+40k+40k)", res)
	}
	if res.Answer == nil || res.Answer.Size() == 0 || res.Answer.Size() > 64 {
		t.Errorf("answer has %d rows, want 1..64 (Heads²)", res.Answer.Size())
	}
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("cost %d in %v, %.1f MB allocated", res.Cost, elapsed, allocMB)
	if elapsed > 5*time.Second {
		t.Errorf("planning took %v, budget 5s", elapsed)
	}
	if allocMB > 256 {
		t.Errorf("planning allocated %.0f MB, budget 256 MB", allocMB)
	}
}

// A former tail, pinned: the M3 order search used to be a branch-and-bound
// over subgoal orders, and on this seeded 8-subgoal star it reached
// 41 343 complete orders and took 10 s for cost 1187. On the subset
// lattice it is an ordinary request under either drop rule, at the same
// optimum.
func TestPlanQueryM3StarTail(t *testing.T) {
	const seed = 31
	inst, err := workload.Generate(workload.Config{Shape: workload.Star, QuerySubgoals: 8, NumViews: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	engine.NewDataGen(seed, 100).FillForQuery(db, inst.Query, 100)
	if err := db.MaterializeViews(inst.Views); err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []DropStrategy{SupplementaryRelations, RenamingHeuristic} {
		start := time.Now()
		res, err := PlanQuery(db, inst.Query, inst.Views, PlanRequest{Model: M3, Strategy: strategy, MaxRewritings: 8})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		if res == nil || res.Cost != 1187 {
			t.Errorf("%v: plan = %+v, want cost 1187", strategy, res)
		}
		if elapsed > time.Second {
			t.Errorf("%v: planning took %v, budget 1s", strategy, elapsed)
		}
	}
}
