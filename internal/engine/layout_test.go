package engine_test

import (
	"testing"

	"viewplan/internal/engine"
	"viewplan/internal/views"
	"viewplan/internal/workload"
)

// The executor's blow-up chain probes e2/e3 (and, planned over identity
// views, v2/v3) on column 0. Those ids are interned densely, one key and
// FanOut tails per step, so every one of those indexes must take the
// direct layout at both ends of the fan-out range the benchmark draws.
func TestRowIndexLayoutExecChain(t *testing.T) {
	vs, err := views.ParseSet("v1(A, B) :- e1(A, B).\nv2(A, B) :- e2(A, B).\nv3(A, B) :- e3(A, B).")
	if err != nil {
		t.Fatal(err)
	}
	for _, fanOut := range []int{2, 8} {
		db := engine.NewDatabase()
		if _, err := workload.ExecChain(db, workload.ExecConfig{Keys: 1000, FanOut: fanOut}); err != nil {
			t.Fatal(err)
		}
		if err := db.MaterializeViews(vs); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"e2", "e3", "v2", "v3"} {
			if !engine.DirectIndex(db.Relation(name), []int{0}) {
				t.Errorf("FanOut %d: %s column 0 index is hashed, want direct", fanOut, name)
			}
		}
	}
}
