package viewplan

import (
	"fmt"
	"testing"

	"viewplan/internal/corecover"
	"viewplan/internal/cost"
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
	"viewplan/internal/workload"
)

// execCorpus is the 200-instance seeded chain/star corpus the planner
// differential harnesses run on (corecover/differential_test.go uses
// the same recipe), here with data materialized so plans can execute.
func execCorpus(t *testing.T) []*workload.Instance {
	t.Helper()
	var out []*workload.Instance
	for _, shape := range []workload.Shape{workload.Star, workload.Chain} {
		for i := 0; i < 100; i++ {
			inst, err := workload.Generate(workload.Config{
				Shape:            shape,
				QuerySubgoals:    4 + i%3,
				NumViews:         6 + i%7,
				Nondistinguished: i % 2,
				Seed:             int64(1000*int(shape) + i),
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, inst)
		}
	}
	return out
}

func tuplesIdentical(t *testing.T, label string, a, b *Relation) {
	t.Helper()
	if a.Name != b.Name || a.Arity != b.Arity || a.Size() != b.Size() {
		t.Fatalf("%s: relation shape differs: %s/%d/%d vs %s/%d/%d",
			label, a.Name, a.Arity, a.Size(), b.Name, b.Arity, b.Size())
	}
	ar, br := a.Rows(), b.Rows()
	for i := range ar {
		for j := range ar[i] {
			if ar[i][j] != br[i][j] {
				t.Fatalf("%s: row %d differs: %v vs %v", label, i, ar[i], br[i])
			}
		}
	}
}

// replayMaterialized is the corpus harness's reference executor: the
// plan's JoinStep chain exactly as the cost simulation ran it (same
// order, same M3 per-step projections), then the comparison filter and
// the head over decoded rows, apart from the executor's interned
// operators. internal/cost keeps the same replay, with residency
// accounting, as the oracle of its own tests; a test of this package
// cannot reach it.
func replayMaterialized(db *Database, p *Plan) (*Relation, error) {
	q := p.Rewriting
	cur := engine.UnitVarRelation()
	for k, idx := range p.Order {
		var retain []Var
		if p.Model == M3 {
			retain = p.Steps[k].Retained
		}
		next, err := db.JoinStep(cur, q.Body[idx], retain)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	// Insert keeps each head tuple's first occurrence: the materialized
	// insertion order.
	out := engine.NewRelation(q.Name(), q.Head.Arity())
	for _, row := range cur.Rows() {
		s := make(Subst, len(row))
		for i, v := range cur.Schema {
			s[v] = row[i]
		}
		pass := true
		for _, c := range s.Comparisons(q.Comparisons) {
			ok, err := cq.EvalComparison(c)
			if err != nil {
				return nil, err
			}
			pass = pass && ok
		}
		if !pass {
			continue
		}
		head := s.Atom(q.Head)
		t := make(Tuple, len(head.Args))
		for i, a := range head.Args {
			c, ok := a.(Const)
			if !ok {
				return nil, fmt.Errorf("head term %v not bound by schema %v", a, cur.Schema)
			}
			t[i] = c
		}
		out.Insert(t)
	}
	return out, nil
}

// probeRowsOf runs f under a private tracer and returns the
// join_probe_rows it ticked.
func probeRowsOf(db *Database, f func()) int64 {
	tr := NewTracer()
	db.SetTracer(tr)
	defer db.SetTracer(nil)
	f()
	return tr.Counter(obs.CtrJoinProbeRows)
}

// TestDifferentialStreamingExecution is the full-corpus gate of DESIGN
// §16: for every instance in the 200-instance corpus, ExecutePlan's
// answer for the chosen M2 and M3 plans is byte-identical — same
// insertion order, not just the same set — to the materialized replay,
// and probes no more index rows than the replay does (the projection
// dedup of M3 plans: without it the joins above a projection redo work
// per duplicate).
func TestDifferentialStreamingExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential harness")
	}
	corpus := execCorpus(t)
	executed := 0
	for ci, inst := range corpus {
		res, err := corecover.CoreCoverStar(inst.Query, inst.Views, corecover.Options{MaxRewritings: 3})
		if err != nil {
			t.Fatalf("instance %d: %v", ci, err)
		}
		if len(res.Rewritings) == 0 {
			continue
		}
		db := NewDatabase()
		gen := engine.NewDataGen(int64(1000+ci), 6)
		gen.FillForQuery(db, inst.Query, 12)
		if err := db.MaterializeViews(inst.Views); err != nil {
			t.Fatalf("instance %d: %v", ci, err)
		}
		for pi, p := range res.Rewritings {
			if len(p.Body) > 4 {
				continue
			}
			m2, err := cost.BestPlanM2(db, p)
			if err != nil {
				t.Fatalf("instance %d: BestPlanM2: %v", ci, err)
			}
			m3, err := cost.BestPlanM3(db, p, RenamingHeuristic, inst.Query, inst.Views)
			if err != nil {
				t.Fatalf("instance %d: BestPlanM3: %v", ci, err)
			}
			for _, plan := range []*Plan{m2, m3} {
				var want, got *Relation
				wantProbes := probeRowsOf(db, func() { want, err = replayMaterialized(db, plan) })
				if err != nil {
					t.Fatalf("instance %d rewriting %d %s: replay: %v", ci, pi, plan.Model, err)
				}
				gotProbes := probeRowsOf(db, func() { got, _, err = ExecutePlan(db, plan, ExecOptions{}) })
				if err != nil {
					t.Fatalf("instance %d rewriting %d %s: ExecutePlan: %v", ci, pi, plan.Model, err)
				}
				tuplesIdentical(t, inst.Query.String(), want, got)
				if gotProbes > wantProbes {
					t.Fatalf("instance %d rewriting %d %s: ExecutePlan probed %d index rows, the replay %d\n%v",
						ci, pi, plan.Model, gotProbes, wantProbes, plan)
				}
				executed++
			}
		}
	}
	if executed == 0 {
		t.Fatal("differential corpus executed no plans")
	}
	t.Logf("differential harness: %d executions byte-identical to the replay", executed)
}
