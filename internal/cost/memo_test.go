package cost

import (
	"math"
	"testing"

	"viewplan/internal/corecover"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
	"viewplan/internal/workload"
)

// memoFixture materializes a random instance and returns every
// rewriting CoreCover* finds (capped), so planning with a shared memo and
// with fresh ones can be compared across the whole candidate set.
func memoFixture(t *testing.T, shape workload.Shape, subgoals int, seed int64) (*engine.Database, *workload.Instance, []*corecover.Result) {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		Shape:         shape,
		QuerySubgoals: subgoals,
		NumViews:      20,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := corecover.CoreCoverStar(inst.Query, inst.Views, corecover.Options{MaxRewritings: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritings) == 0 {
		return nil, inst, nil
	}
	db := engine.NewDatabase()
	gen := engine.NewDataGen(seed+13, 10)
	gen.FillForQuery(db, inst.Query, 60)
	if err := db.MaterializeViews(inst.Views); err != nil {
		t.Fatal(err)
	}
	return db, inst, []*corecover.Result{res}
}

// The memo is an invisible optimization: plans found with one memo
// shared by every candidate's searches, as PlanQuery shares it, must
// render byte-identically to plans found with a fresh memo per call,
// across every rewriting of randomized star and chain instances, under
// both M2 and M3.
func TestMemoPlansByteIdentical(t *testing.T) {
	shapes := []workload.Shape{workload.Star, workload.Chain}
	anyHits := false
	for _, shape := range shapes {
		for seed := int64(1); seed <= 6; seed++ {
			db, inst, results := memoFixture(t, shape, 4, seed)
			if results == nil {
				continue
			}
			res := results[0]

			type rendered struct {
				s, tree string
				cost    int
			}
			render := func(memo func() *Memo) []rendered {
				var out []rendered
				for _, p := range res.Rewritings {
					m2, err := BestPlanM2Below(db, p, math.MaxInt, memo())
					if err != nil {
						t.Fatalf("seed %d: BestPlanM2Below: %v", seed, err)
					}
					out = append(out, rendered{m2.String(), m2.Tree(), m2.Cost})
					if len(p.Body) <= 4 {
						for _, strategy := range []DropStrategy{SupplementaryRelations, RenamingHeuristic} {
							m3, err := BestPlanM3Below(db, p, strategy, inst.Query, inst.Views, math.MaxInt, memo())
							if err != nil {
								t.Fatalf("seed %d: BestPlanM3Below: %v", seed, err)
							}
							out = append(out, rendered{m3.String(), m3.Tree(), m3.Cost})
						}
					}
				}
				return out
			}

			fresh := render(func() *Memo { return new(Memo) })

			tr := obs.New()
			db.SetTracer(tr)
			memo := new(Memo)
			shared := render(func() *Memo { return memo })
			db.SetTracer(nil)

			if len(fresh) != len(shared) {
				t.Fatalf("seed %d: plan count %d vs %d", seed, len(fresh), len(shared))
			}
			for i := range fresh {
				if fresh[i] != shared[i] {
					t.Errorf("%v seed %d plan %d differs with a shared memo:\n--- fresh ---\n%s\n--- shared ---\n%s",
						shape, seed, i, fresh[i].tree, shared[i].tree)
				}
			}
			if tr.Counter(obs.CtrIRCacheHit) > 0 {
				anyHits = true
			}
		}
	}
	if !anyHits {
		t.Error("no memo hits across the whole corpus; the shared memo is not being exercised")
	}
}
