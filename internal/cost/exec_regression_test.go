package cost

import (
	"testing"

	"viewplan/internal/engine"
	"viewplan/internal/workload"
)

// The executor's reason to exist, pinned as a regression test on the
// chain whose intermediates (50k and 200k rows) dwarf its 32-row
// answer: the materialized oracle's peak exceeds the answer by ≥100×
// while ExecutePlan, byte-identical to it, holds exactly the answer and
// allocates a constant handful of objects however many rows stream
// through.
func TestStreamExecPeakAndAllocRegression(t *testing.T) {
	db := engine.NewDatabase()
	q, err := workload.ExecChain(db, workload.ExecConfig{Keys: 50000, FanOut: 4, Heads: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The chain order is the plan under test; no optimizer run, so the
	// cost simulation's own materialization stays out of the picture.
	plan := &Plan{Model: M2, Rewriting: q}

	want, err := runOracle(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if want.rel.Size() == 0 {
		t.Fatal("empty answer; the workload generator is broken")
	}
	if blowup := want.stats.PeakResidentRows / int64(want.rel.Size()); blowup < 100 {
		t.Fatalf("oracle intermediates exceed the answer only %d×, want ≥100× (peak %d, answer %d)",
			blowup, want.stats.PeakResidentRows, want.rel.Size())
	}
	got, err := runProduction(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsIdentical(want.rel, got.rel) {
		t.Fatal("ExecutePlan answer differs from the oracle's")
	}
	if got.stats.PeakResidentRows != int64(got.rel.Size()) {
		t.Fatalf("ExecutePlan peak %d resident rows, want exactly the answer's %d",
			got.stats.PeakResidentRows, got.rel.Size())
	}
	// 39 allocs/op when recorded (go1.24); the margin absorbs pooled
	// frames lost to a GC cycle between runs.
	const maxAllocs = 43
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := ExecutePlan(db, plan, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("ExecutePlan allocated %.0f objects/op, budget %d", allocs, maxAllocs)
	}
	t.Logf("answer %d rows; peak resident: oracle %d, ExecutePlan %d; %.0f allocs/op",
		want.rel.Size(), want.stats.PeakResidentRows, got.stats.PeakResidentRows, allocs)
}
