package cost

import (
	"testing"
	"testing/quick"

	"viewplan/internal/corecover"
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/views"
)

// rewritingsFor runs CoreCover and fails the test when the instance has
// no rewritings (Example 6.1 always does).
func rewritingsFor(t *testing.T, q *cq.Query, vs *views.Set) []*cq.Query {
	t.Helper()
	res, err := corecover.CoreCoverStar(q, vs, corecover.Options{MaxRewritings: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritings) == 0 {
		t.Fatal("no rewritings")
	}
	return res.Rewritings
}

// rowsIdentical pins insertion order, not just the row set: the decoded
// rows must agree position by position. The oracle's answer lives on a
// private interner, so its ids are not comparable; its values are.
func rowsIdentical(a, b *engine.Relation) bool {
	if a.Name != b.Name || a.Arity != b.Arity || a.Size() != b.Size() {
		return false
	}
	ar, br := a.Rows(), b.Rows()
	for i := range ar {
		for j := range ar[i] {
			if ar[i][j] != br[i][j] {
				return false
			}
		}
	}
	return true
}

// execVsOracle runs one plan through ExecutePlan and through the
// materialized oracle and checks byte-identity, the stats' consistency,
// and that the executor probed no more index rows than the oracle did.
func execVsOracle(t *testing.T, db *engine.Database, p *Plan) (got, want oracleRun) {
	t.Helper()
	want, err := runOracle(db, p)
	if err != nil {
		t.Fatalf("oracle(%v): %v", p.Rewriting, err)
	}
	got, err = runProduction(db, p)
	if err != nil {
		t.Fatalf("ExecutePlan(%v): %v", p.Rewriting, err)
	}
	if !rowsIdentical(want.rel, got.rel) {
		t.Fatalf("result differs for %v:\noracle      %v\nExecutePlan %v",
			p.Rewriting, want.rel.SortedRows(), got.rel.SortedRows())
	}
	if got.stats.Rows != got.rel.Size() || got.stats.RawRows < int64(got.rel.Size()) {
		t.Fatalf("stats = %+v for %d rows", got.stats, got.rel.Size())
	}
	if got.probeRows > want.probeRows {
		t.Fatalf("ExecutePlan probed %d index rows, the oracle %d, for\n%v", got.probeRows, want.probeRows, p)
	}
	return got, want
}

// ExecutePlan produces the oracle's byte-identical relation, probing no
// more index rows, on random M2 and M3 plans over random chain
// instances — with and without an IR cache attached (PlanQuery executes
// with one attached; the executor must not be affected by it).
func TestQuickExecutePlanAllPathsIdentical(t *testing.T) {
	f := func(seed int64) bool {
		db, p, q, vs, ok := costFixture(seed)
		if !ok {
			return true
		}
		m2, err := BestPlanM2(db, p)
		if err != nil {
			return false
		}
		m3, err := BestPlanM3(db, p, RenamingHeuristic, q, vs)
		if err != nil {
			return false
		}
		var base oracleRun
		for _, plan := range []*Plan{m2, m3} {
			db.SetIRCache(nil)
			base, err = runOracle(db, plan)
			if err != nil {
				return false
			}
			for _, cache := range []*engine.IRCache{nil, engine.NewIRCache()} {
				db.SetIRCache(cache)
				got, err := runProduction(db, plan)
				if err != nil || !rowsIdentical(base.rel, got.rel) || got.probeRows > base.probeRows {
					return false
				}
			}
		}
		db.SetIRCache(nil)
		// Executing candidates must agree with direct evaluation on the
		// row set (orders legitimately differ across join orders).
		re, err := db.Evaluate(p)
		if err != nil {
			return false
		}
		sa, sb := re.SortedRows(), base.rel.SortedRows()
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			for j := range sa[i] {
				if sa[i][j] != sb[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Directed: the paper's Example 6.1 plans execute identically to the
// oracle, and M3's per-step Retained projections are honored.
func TestExecutePlanExample61(t *testing.T) {
	db, vs, q := example61(t)
	res := rewritingsFor(t, q, vs)
	for _, p := range res {
		m2, err := BestPlanM2(db, p)
		if err != nil {
			t.Fatal(err)
		}
		execVsOracle(t, db, m2)
		m3, err := BestPlanM3(db, p, SupplementaryRelations, q, vs)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := execVsOracle(t, db, m3)
		if out.rel.Arity != q.Head.Arity() {
			t.Fatalf("result arity %d, want %d", out.rel.Arity, q.Head.Arity())
		}
	}
}

// Peak residency accounting: the oracle reports at least the largest
// intermediate; the executor holds the answer only on M2 plans, and the
// projection dedup sets besides on M3 plans.
func TestExecutePlanPeakResident(t *testing.T) {
	db, vs, q := example61(t)
	res := rewritingsFor(t, q, vs)
	db.SetIRCache(nil)
	for _, r := range res {
		m2, err := BestPlanM2(db, r)
		if err != nil {
			t.Fatal(err)
		}
		m3, err := BestPlanM3(db, r, SupplementaryRelations, q, vs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Plan{m2, m3} {
			got, want := execVsOracle(t, db, p)
			if want.stats.PeakResidentRows < int64(want.rel.Size()) {
				t.Fatalf("oracle peak %d < result %d", want.stats.PeakResidentRows, want.rel.Size())
			}
			if got.stats.PeakResidentRows < int64(got.rel.Size()) {
				t.Fatalf("executor peak %d < result %d", got.stats.PeakResidentRows, got.rel.Size())
			}
			if p.Model == M2 && got.stats.PeakResidentRows != int64(got.rel.Size()) {
				t.Fatalf("M2 executor peak %d, want the answer's %d rows", got.stats.PeakResidentRows, got.rel.Size())
			}
		}
	}
}

// Nil and malformed plans error cleanly.
func TestExecutePlanErrors(t *testing.T) {
	db := engine.NewDatabase()
	if _, _, err := ExecutePlan(db, nil, ExecOptions{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, _, err := ExecutePlan(db, &Plan{}, ExecOptions{}); err == nil {
		t.Error("plan without rewriting accepted")
	}
}
