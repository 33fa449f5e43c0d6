package views

import (
	"testing"

	"viewplan/internal/containment"
	"viewplan/internal/cq"
)

// referenceTuples is the oracle ComputeTuples is tested against: the
// definition of T(Q, V) evaluated literally, with no candidate prefilter
// and no batch frame — one CanonicalDB.EvaluateFunc call per view,
// answers deduplicated per view and thawed.
func referenceTuples(q *cq.Query, s *Set) []Tuple {
	db := containment.FreezeQuery(q)
	var out []Tuple
	for _, v := range s.Views {
		start := len(out)
		db.EvaluateFunc(v.Def, func(frozen []cq.Term) bool {
			args := make([]cq.Term, len(frozen))
			for i, t := range frozen {
				args[i] = db.ThawTerm(t)
			}
			atom := cq.Atom{Pred: v.Def.Head.Pred, Args: args}
			for _, prev := range out[start:] {
				if prev.Atom.Equal(atom) {
					return true
				}
			}
			out = append(out, Tuple{View: v, Atom: atom})
			return true
		})
	}
	return out
}

// TestAppendViewTuplesAllocs pins the allocation profile of one view's
// tuple computation: allocations must scale with the number of *kept*
// tuples, never with the number of candidate homomorphisms. The workload
// is a star query whose canonical database gives the self-join view 64
// homomorphisms that all collapse to the single tuple v(X) — so a
// regression that re-introduces per-homomorphism expansion or thaw
// allocation inflates the measurement by an order of magnitude.
func TestAppendViewTuplesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; gate runs in non-race builds")
	}
	q := cq.MustParseQuery(
		"q(X) :- e(X, Y1), e(X, Y2), e(X, Y3), e(X, Y4), e(X, Y5), e(X, Y6), e(X, Y7), e(X, Y8)")
	s := mustSet(t, "v(A) :- e(A, B), e(A, C).")
	db := containment.FreezeQuery(q)
	p := containment.NewBatchProber(db)
	defer p.Close()
	v := s.Views[0]

	var dst []Tuple
	dst = appendViewTuples(dst, db, p, v) // warm the frame and dst capacity
	if len(dst) != 1 || dst[0].Atom.String() != "v(X)" {
		t.Fatalf("got tuples %v, want [v(X)]", dst)
	}

	allocs := testing.AllocsPerRun(100, func() {
		dst = appendViewTuples(dst[:0], db, p, v)
	})
	// Per run: the yield closure, the kept tuple's frozen and thawed
	// argument copies, and a little slice growth — a fixed handful. 64
	// per-homomorphism allocations would land far above this gate.
	const maxAllocs = 12
	if allocs > maxAllocs {
		t.Fatalf("appendViewTuples allocated %.0f times per run, want <= %d", allocs, maxAllocs)
	}
	if len(dst) != 1 {
		t.Fatalf("measured run produced %d tuples, want 1", len(dst))
	}
}

// TestComputeTuplesNMatchesSequential pins that the production tuple
// computation — candidate prefilter plus one batch frame — produces the
// byte-identical tuple slice the unfiltered per-view reference does, for
// the default name-set prefilter, a caller-supplied sound one, and none.
func TestComputeTuplesNMatchesSequential(t *testing.T) {
	s := mustSet(t, `
		v1(A, B) :- e(A, C), e(C, B).
		v2(A) :- e(A, A).
		v3(A, B) :- e(A, B), e(B, A).
		v4(A, B) :- e(A, B), f(B, A).
		v5(A) :- g(A, A).
		v6(A, B) :- e(A, C), e(A, B), e(C, B).
	`)
	for _, src := range []string{
		"q(X, Y) :- e(X, Z), e(Z, Y), e(Y, X)",
		"q(X) :- e(X, Y), e(Y, X), f(X, Y)",
		"q(X) :- e(X, X), g(X, X)",
		"q(X) :- h(X, Y)",
	} {
		q := cq.MustParseQuery(src)
		want := referenceTuples(q, s)
		all := func(int) bool { return true }
		_, hasG := q.Preds()["g"]
		noG := func(i int) bool { return hasG || s.Views[i].Name() != "v5" }
		for name, cand := range map[string]func(int) bool{"default": nil, "all": all, "custom": noG} {
			got := ComputeTuples(q, s, cand)
			if len(got) != len(want) {
				t.Fatalf("%s, %s prefilter: %d tuples, want %d", src, name, len(got), len(want))
			}
			for i := range want {
				if got[i].View != want[i].View || !got[i].Atom.Equal(want[i].Atom) {
					t.Fatalf("%s, %s prefilter: tuple %d = %v, want %v", src, name, i, got[i], want[i])
				}
			}
		}
	}
}
