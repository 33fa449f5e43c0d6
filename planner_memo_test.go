package viewplan

import (
	"fmt"
	"testing"

	"viewplan/internal/engine"
	"viewplan/internal/obs"
	"viewplan/internal/workload"
)

// memoInstance generates the seeded 4-subgoal star instance the memo
// tests plan, without data.
func memoInstance(t *testing.T, seed int64) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{Shape: workload.Star, QuerySubgoals: 4, NumViews: 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// The candidates of one PlanQuery share its memo: with filter selection
// off, every hit is a subset one candidate's search finds that an
// earlier candidate's already sized or joined.
func TestMemoSharesAcrossRewritings(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		inst := memoInstance(t, seed)
		db := NewDatabase()
		engine.NewDataGen(seed+13, 10).FillForQuery(db, inst.Query, 60)
		if err := db.MaterializeViews(inst.Views); err != nil {
			t.Fatal(err)
		}
		tr := NewTracer()
		res, err := PlanQuery(db, inst.Query, inst.Views, PlanRequest{Model: M2, DisableFilters: true, MaxRewritings: 8, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if res == nil || res.Considered < 2 {
			continue
		}
		if hits := tr.Counter(obs.CtrIRCacheHit); hits == 0 {
			t.Fatalf("seed %d: %d candidates, no memo hits across them", seed, res.Considered)
		}
		return
	}
	t.Fatal("no instance with two or more candidate rewritings")
}

// Planning after the data changed sees the new data: PlanQuery, then
// rows inserted into every base relation and the views re-materialized,
// then PlanQuery again must choose the plan, at the cost, with the
// answer, that PlanQuery on a fresh database holding the final rows
// does, under M2 and M3.
func TestPlanQueryAfterInsertMatchesFreshDatabase(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		inst := memoInstance(t, seed)
		// The inserted rows repeat one constant in every column, so they
		// join with each other through every view and move the costs.
		grow := func(db *Database) {
			for _, a := range inst.Query.Body {
				for i := 0; i < 5; i++ {
					row := make(Tuple, a.Arity())
					for j := range row {
						row[j] = Const(fmt.Sprintf("c%d", i))
					}
					if err := db.Insert(a.Pred, row); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		db := NewDatabase()
		engine.NewDataGen(seed+13, 10).FillForQuery(db, inst.Query, 60)
		if err := db.MaterializeViews(inst.Views); err != nil {
			t.Fatal(err)
		}
		fresh := NewDatabase()
		engine.NewDataGen(seed+13, 10).FillForQuery(fresh, inst.Query, 60)
		grow(fresh)
		if err := fresh.MaterializeViews(inst.Views); err != nil {
			t.Fatal(err)
		}
		models := []CostModel{M2, M3}
		before := make([]*PlanResult, len(models))
		for i, model := range models {
			var err error
			if before[i], err = PlanQuery(db, inst.Query, inst.Views, PlanRequest{Model: model, MaxRewritings: 8, Execute: true}); err != nil {
				t.Fatal(err)
			}
		}
		if before[0] == nil {
			continue
		}
		grow(db)
		for _, v := range inst.Views.Views {
			rel, err := db.Evaluate(v.Def)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rel.Rows() {
				if err := db.Insert(v.Name(), row); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, model := range models {
			req := PlanRequest{Model: model, MaxRewritings: 8, Execute: true}
			got, err := PlanQuery(db, inst.Query, inst.Views, req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := PlanQuery(fresh, inst.Query, inst.Views, req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost == before[i].Cost {
				t.Fatalf("seed %d %v: the inserts left the cost at %d; the test does not exercise them", seed, model, got.Cost)
			}
			if got.Plan.Tree() != want.Plan.Tree() || got.Cost != want.Cost {
				t.Errorf("seed %d %v: after the inserts PlanQuery chose\n%s\na fresh database\n%s", seed, model, got.Plan.Tree(), want.Plan.Tree())
			}
			if g, w := fmt.Sprint(got.Answer.SortedRows()), fmt.Sprint(want.Answer.SortedRows()); g != w {
				t.Errorf("seed %d %v: answer %s, on a fresh database %s", seed, model, g, w)
			}
		}
		return // one instance with rewritings suffices
	}
	t.Fatal("no instance with rewritings")
}
