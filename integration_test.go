package viewplan_test

import (
	"testing"

	"viewplan"
	"viewplan/internal/bucket"
	"viewplan/internal/corecover"
	"viewplan/internal/engine"
	"viewplan/internal/minicon"
	"viewplan/internal/naive"
	"viewplan/internal/ucq"
	"viewplan/internal/workload"
)

// The integration suite exercises the whole pipeline end to end on
// random workloads: generate query+views, find rewritings with every
// algorithm, materialize views over random data, and check the
// closed-world guarantee — every equivalent rewriting computes exactly
// the base query's answer — plus cross-algorithm agreement on rewriting
// existence and minimum size.

func relationsEqual(a, b *engine.Relation) bool {
	if a.Size() != b.Size() {
		return false
	}
	for _, row := range a.Rows() {
		if !b.Contains(row) {
			return false
		}
	}
	return true
}

func integrationInstance(t *testing.T, shape workload.Shape, seed int64, nondist int) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		Shape:            shape,
		QuerySubgoals:    5,
		NumViews:         25,
		Nondistinguished: nondist,
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestIntegrationClosedWorld(t *testing.T) {
	shapes := []workload.Shape{workload.Star, workload.Chain, workload.Random}
	checked := 0
	for _, shape := range shapes {
		for seed := int64(0); seed < 8; seed++ {
			inst := integrationInstance(t, shape, seed*31+7, int(seed%2))
			res, err := corecover.CoreCoverStar(inst.Query, inst.Views, corecover.Options{MaxRewritings: 6})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rewritings) == 0 {
				continue
			}
			db := viewplan.NewDatabase()
			gen := engine.NewDataGen(seed+100, 6)
			gen.FillForQuery(db, inst.Query, 40)
			if err := db.MaterializeViews(inst.Views); err != nil {
				t.Fatal(err)
			}
			base, err := db.Evaluate(inst.Query)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Rewritings {
				got, err := db.Evaluate(p)
				if err != nil {
					t.Fatal(err)
				}
				if !relationsEqual(base, got) {
					t.Errorf("%s seed %d: rewriting %s: %d rows, base %d rows",
						shape, seed, p, got.Size(), base.Size())
				}
				checked++
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d rewritings checked; workloads too weak", checked)
	}
	t.Logf("closed-world equality verified for %d rewritings", checked)
}

func TestIntegrationAlgorithmsAgreeOnExistence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		inst := integrationInstance(t, workload.Star, seed*17+3, 0)
		cc, err := corecover.CoreCover(inst.Query, inst.Views, corecover.Options{MaxRewritings: 1})
		if err != nil {
			t.Fatal(err)
		}
		nv, err := naive.GMRs(inst.Query, inst.Views, naive.Options{MaxRewritings: 1})
		if err != nil {
			t.Fatal(err)
		}
		bk, err := bucket.Rewritings(inst.Query, inst.Views, bucket.Options{MaxRewritings: 1, MaxCandidates: 500000})
		if err != nil {
			t.Fatal(err)
		}
		ccHas, nvHas, bkHas := len(cc.Rewritings) > 0, len(nv) > 0, len(bk) > 0
		if ccHas != nvHas {
			t.Errorf("seed %d: corecover=%v naive=%v disagree", seed, ccHas, nvHas)
		}
		if ccHas != bkHas {
			t.Errorf("seed %d: corecover=%v bucket=%v disagree", seed, ccHas, bkHas)
		}
		if ccHas && nvHas && len(cc.Rewritings[0].Body) != len(nv[0].Body) {
			t.Errorf("seed %d: GMR sizes differ: corecover %d, naive %d",
				seed, len(cc.Rewritings[0].Body), len(nv[0].Body))
		}
	}
}

func TestIntegrationMiniConSubsumedByMaximallyContained(t *testing.T) {
	// Every equivalent rewriting MiniCon finds must be contained in the
	// query, and the maximally-contained union must recover the query
	// whenever an equivalent rewriting exists.
	for seed := int64(0); seed < 6; seed++ {
		inst := integrationInstance(t, workload.Chain, seed*13+1, 0)
		eq := minicon.Rewritings(inst.Query, inst.Views, minicon.Options{EquivalentOnly: true, MaxRewritings: 4})
		for _, p := range eq {
			if !inst.Views.IsEquivalentRewriting(p, inst.Query) {
				t.Errorf("seed %d: MiniCon 'equivalent' rewriting %s is not", seed, p)
			}
		}
		hasEq, err := corecover.HasRewriting(inst.Query, inst.Views)
		if err != nil {
			t.Fatal(err)
		}
		if !hasEq {
			continue
		}
		mc, err := ucq.MaximallyContained(inst.Query, inst.Views, 50)
		if err != nil {
			t.Fatal(err)
		}
		if mc == nil {
			t.Errorf("seed %d: equivalent rewriting exists but no contained union", seed)
			continue
		}
		exp, err := ucq.Expand(mc, inst.Views)
		if err != nil {
			t.Fatal(err)
		}
		if !ucq.Contains(exp, ucq.FromQuery(inst.Query)) {
			t.Errorf("seed %d: maximally-contained union is not contained", seed)
		}
	}
}

func TestIntegrationM2PlansExecuteCorrectly(t *testing.T) {
	// The optimizer's best plan, executed step by step, ends with the
	// base answer (projected), for random rewritings.
	for seed := int64(0); seed < 6; seed++ {
		inst := integrationInstance(t, workload.Chain, seed*7+5, 0)
		res, err := corecover.CoreCoverStar(inst.Query, inst.Views, corecover.Options{MaxRewritings: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rewritings) == 0 {
			continue
		}
		db := viewplan.NewDatabase()
		gen := engine.NewDataGen(seed+7, 5)
		gen.FillForQuery(db, inst.Query, 30)
		if err := db.MaterializeViews(inst.Views); err != nil {
			t.Fatal(err)
		}
		base, err := db.Evaluate(inst.Query)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Rewritings {
			if len(p.Body) > 6 {
				continue
			}
			plan, err := viewplan.BestPlanM2(db, p)
			if err != nil {
				t.Fatal(err)
			}
			// Execute the plan's order explicitly and project the head.
			reordered := p.KeepSubgoals(plan.Order)
			got, err := db.Evaluate(reordered)
			if err != nil {
				t.Fatal(err)
			}
			if !relationsEqual(base, got) {
				t.Errorf("seed %d: plan order changes the answer for %s", seed, p)
			}
			// The plan's last step size must be at least the projected
			// answer size (all attributes retained).
			last := plan.Steps[len(plan.Steps)-1]
			if last.ResultSize < base.Size() {
				t.Errorf("seed %d: final IR %d smaller than answer %d", seed, last.ResultSize, base.Size())
			}
		}
	}
}

func TestIntegrationEstimatorRanksConsistently(t *testing.T) {
	// The statistics-only ranking must put a strict superset rewriting
	// (more joins over the same views) no cheaper than its subset.
	inst := integrationInstance(t, workload.Star, 99, 0)
	res, err := corecover.CoreCoverStar(inst.Query, inst.Views, corecover.Options{MaxRewritings: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritings) == 0 {
		t.Skip("no rewriting for this seed")
	}
	db := viewplan.NewDatabase()
	gen := engine.NewDataGen(1, 8)
	gen.FillForQuery(db, inst.Query, 50)
	if err := db.MaterializeViews(inst.Views); err != nil {
		t.Fatal(err)
	}
	cat := viewplan.CollectStats(db)
	for _, p := range res.Rewritings {
		if len(p.Body) > 6 {
			continue
		}
		order, est, err := viewplan.EstimateBestOrderM2(cat, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != len(p.Body) || est <= 0 {
			t.Errorf("estimate broken for %s: order %v, est %f", p, order, est)
		}
	}
}
