package workload

import (
	"testing"

	"viewplan/internal/corecover"
	"viewplan/internal/cq"
)

func TestStarShape(t *testing.T) {
	inst, err := Generate(Config{Shape: Star, QuerySubgoals: 8, NumViews: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := inst.Query
	if len(q.Body) != 8 {
		t.Fatalf("body = %d subgoals", len(q.Body))
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every subgoal shares the center X0.
	for _, a := range q.Body {
		if a.Args[0] != cq.Var("X0") {
			t.Errorf("subgoal %s does not share the center", a)
		}
	}
	// All variables distinguished.
	if len(q.ExistentialVars()) != 0 {
		t.Errorf("existential vars = %v", q.ExistentialVars())
	}
	if inst.Views.Len() != 20 {
		t.Errorf("views = %d", inst.Views.Len())
	}
	for _, v := range inst.Views.Views {
		if len(v.Def.Body) < 1 || len(v.Def.Body) > 3 {
			t.Errorf("view %s has %d subgoals", v.Name(), len(v.Def.Body))
		}
		if err := v.Def.Validate(); err != nil {
			t.Errorf("view %s invalid: %v", v.Name(), err)
		}
	}
}

func TestChainShape(t *testing.T) {
	inst, err := Generate(Config{Shape: Chain, QuerySubgoals: 8, NumViews: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := inst.Query
	if len(q.Body) != 8 {
		t.Fatalf("body = %d subgoals", len(q.Body))
	}
	// Chain linkage: subgoal i's second argument equals subgoal i+1's
	// first argument.
	for i := 0; i+1 < len(q.Body); i++ {
		if q.Body[i].Args[1] != q.Body[i+1].Args[0] {
			t.Errorf("chain broken between %s and %s", q.Body[i], q.Body[i+1])
		}
	}
}

func TestChainOneNondistinguished(t *testing.T) {
	inst, err := Generate(Config{Shape: Chain, QuerySubgoals: 8, NumViews: 50, Nondistinguished: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ex := inst.Query.ExistentialVars()
	if len(ex) != 1 {
		t.Fatalf("existential vars = %v", ex)
	}
	if len(inst.HiddenQueryVars) != 1 || !ex.Has(inst.HiddenQueryVars[0]) {
		t.Errorf("hidden = %v, existential = %v", inst.HiddenQueryVars, ex)
	}
	// Single-subgoal views keep all variables distinguished.
	for _, v := range inst.Views.Views {
		if len(v.Def.Body) == 1 && len(v.Def.ExistentialVars()) != 0 {
			t.Errorf("single-subgoal view %s hides a variable", v.Name())
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(Config{Shape: Star, NumViews: 25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Shape: Star, NumViews: 25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Query.String() != b.Query.String() {
		t.Error("queries differ across runs")
	}
	for i := range a.Views.Views {
		if a.Views.Views[i].String() != b.Views.Views[i].String() {
			t.Errorf("view %d differs", i)
		}
	}
	c, err := Generate(Config{Shape: Star, NumViews: 25, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Views.Views {
		if a.Views.Views[i].String() != c.Views.Views[i].String() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical views")
	}
}

func TestStarUsuallyHasRewriting(t *testing.T) {
	// With enough views the 8 star subgoals are almost always coverable.
	found := 0
	for seed := int64(0); seed < 5; seed++ {
		inst, err := Generate(Config{Shape: Star, QuerySubgoals: 6, NumViews: 120, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := corecover.HasRewriting(inst.Query, inst.Views)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			found++
		}
	}
	if found < 3 {
		t.Errorf("only %d/5 star instances had rewritings", found)
	}
}

func TestChainUsuallyHasRewriting(t *testing.T) {
	found := 0
	for seed := int64(0); seed < 5; seed++ {
		inst, err := Generate(Config{Shape: Chain, QuerySubgoals: 6, NumViews: 120, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := corecover.HasRewriting(inst.Query, inst.Views)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			found++
		}
	}
	if found < 3 {
		t.Errorf("only %d/5 chain instances had rewritings", found)
	}
}

func TestRandomShape(t *testing.T) {
	inst, err := Generate(Config{Shape: Random, QuerySubgoals: 6, NumViews: 40, Arity: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Query.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(inst.Query.Body) != 6 {
		t.Errorf("body = %d", len(inst.Query.Body))
	}
	for _, v := range inst.Views.Views {
		if err := v.Def.Validate(); err != nil {
			t.Errorf("view %s invalid: %v", v.Name(), err)
		}
		// Views are renamed apart from the query.
		for qv := range inst.Query.Vars() {
			if v.Def.Vars().Has(qv) {
				t.Errorf("view %s shares variable %s with the query", v.Name(), qv)
			}
		}
	}
	// Random sub-body views make rewritings reachable.
	ok, err := corecover.HasRewriting(inst.Query, inst.Views)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Log("instance without rewriting (acceptable for random shape)")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.QuerySubgoals != 8 || c.MaxViewSubgoals != 3 || c.NumBaseRelations != 16 || c.Arity != 2 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestShapeString(t *testing.T) {
	if Star.String() != "star" || Chain.String() != "chain" || Random.String() != "random" {
		t.Error("shape names wrong")
	}
}

func TestScaleCatalogDeterministicAndSized(t *testing.T) {
	for _, n := range []int{200, 1000, 5000} {
		a, err := ScaleCatalog(n, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ScaleCatalog(n, 42)
		if err != nil {
			t.Fatal(err)
		}
		if a.Views.Len() != n || b.Views.Len() != n {
			t.Fatalf("n=%d: generated %d/%d views", n, a.Views.Len(), b.Views.Len())
		}
		if a.Query.String() != b.Query.String() {
			t.Fatalf("n=%d: queries differ across identical seeds", n)
		}
		for i, v := range a.Views.Views {
			if v.Def.String() != b.Views.Views[i].Def.String() {
				t.Fatalf("n=%d: view %d differs across identical seeds", n, i)
			}
		}
		// The vocabulary widens with the catalog: views must mention
		// relations beyond the query's own e1..e8 once past the small
		// regime, so the candidate prefilter has something to skip.
		if n > 200 {
			outside := 0
			q := map[string]bool{}
			for _, at := range a.Query.Body {
				q[at.Pred] = true
			}
			for _, v := range a.Views.Views {
				for _, at := range v.Def.Body {
					if !q[at.Pred] {
						outside++
						break
					}
				}
			}
			if outside < n/2 {
				t.Fatalf("n=%d: only %d views mention out-of-query relations", n, outside)
			}
		}
	}
	// The 200-view scale catalog keeps the Fig. 6a vocabulary of 16,
	// byte-compatible with earlier reports.
	if v := ScaleVocab(200); v != 16 {
		t.Fatalf("ScaleVocab(200) = %d, want 16", v)
	}
	if v := ScaleVocab(20000); v != 320 {
		t.Fatalf("ScaleVocab(20000) = %d, want 320", v)
	}
}
