package engine

import (
	"testing"
	"testing/quick"

	"viewplan/internal/cq"
	"viewplan/internal/obs"
)

// relIdentical is the byte-identity check of DESIGN §16: same name,
// arity, row count, and flat interned storage — which pins the
// insertion order, not just the row set.
func relIdentical(a, b *Relation) bool {
	if a.Name != b.Name || a.Arity != b.Arity || a.n != b.n || len(a.data) != len(b.data) {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

func evalBothWays(t *testing.T, db *Database, q *cq.Query) {
	t.Helper()
	want, err := db.Evaluate(q)
	if err != nil {
		t.Fatalf("Evaluate(%s): %v", q, err)
	}
	got, _, err := db.EvaluateStream(q)
	if err != nil {
		t.Fatalf("EvaluateStream(%s): %v", q, err)
	}
	if !relIdentical(want, got) {
		t.Fatalf("streaming result differs for %s:\nmaterialized %v\nstreaming    %v", q, want.SortedRows(), got.SortedRows())
	}
}

// Streaming evaluation is byte-identical to the materialized path on
// random databases and queries (duplicate atoms, repeated variables,
// constants, partial heads).
func TestQuickEvaluateStreamMatchesEvaluate(t *testing.T) {
	f := func(seed int64) bool {
		db, q := randomDBAndQuery(absSeed(seed))
		want, err := db.Evaluate(q)
		if err != nil {
			return false
		}
		got, _, err := db.EvaluateStream(q)
		return err == nil && relIdentical(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Directed cases the random generator is unlikely to hit: wide join
// keys (>2 shared variables), comparisons, never-interned constants,
// head constants, cross products, and unknown predicates.
func TestEvaluateStreamDirected(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadFacts(`
		e(a, b, x, m). e(b, c, y, m). e(c, a, z, n). e(a, b, y, n).
		f(a, b, x, q1). f(b, c, y, q2). f(a, b, y, q3). f(c, c, z, q4).
		g(a). g(b). g(m).
		h(a, a). h(a, b). h(b, b).
		num(1, one). num(2, two). num(3, three).
	`); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"q(A, E) :- e(A, B, C, D), f(A, B, C, E)",      // wide (3-col) join key
		"q(A, B) :- e(A, B, C, D), f(A, B, C2, E)",     // 2-col key, new cols both sides
		"q(X) :- g(X), h(X, X)",                        // repeated var on right
		"q(X, Y) :- g(X), h(Y, Y)",                     // cross product first join
		"q(X) :- h(X, b)",                              // constant in scan
		"q(X) :- g(X), h(X, zzz)",                      // never-interned constant
		"q(X, k) :- g(X), h(X, X)",                     // head constant
		"q(X) :- g(X), ghost(X)",                       // unknown predicate
		"q(N, W) :- num(N, W), num(N2, W2), N < N2",    // comparisons
		"q(W) :- num(N, W), N >= 2",                    // comparison vs constant
		"q(A, D) :- e(A, B, C, D), e(B, C2, C3, D)",    // self join
		"q(A) :- e(A, B, C, D), f(A, B2, C2, E), g(A)", // 3-step chain
	} {
		evalBothWays(t, db, cq.MustParseQuery(src))
	}
}

// A projected pipeline (the M3 supplementary-relation drops) drains to
// the same relation as the materialized JoinStep chain with retains,
// and — because the projection dedups — hands every join exactly the
// rows the materialized chain did: same probe count, nothing left for
// the root drain to collapse.
func TestStreamPipelineRetainsMatchJoinSteps(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadFacts(`
		e(a, b). e(b, c). e(c, d). e(a, c). e(d, a).
		f(b, x). f(c, y). f(c, x). f(a, y). f(d, z).
	`); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X, Z) :- e(X, Y), f(Y, Z), e(Z2, X)")
	order := []int{0, 1, 2}
	retains := [][]cq.Var{
		{"X", "Y"},
		{"X", "Z"},
		{"X", "Z"},
	}
	tr := obs.New()
	db.SetTracer(tr)
	cur := UnitVarRelation()
	for k, idx := range order {
		next, err := db.JoinStep(cur, q.Body[idx], retains[k])
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	probed := tr.Counter(obs.CtrJoinProbeRows)
	it, err := db.BuildJoinPipeline(q.Body, order, retains)
	if err != nil {
		t.Fatal(err)
	}
	got, stats := db.DrainStream("ir", len(cur.Schema), it, false)
	if got.Size() != cur.Size() {
		t.Fatalf("drained %d rows, materialized %d", got.Size(), cur.Size())
	}
	for i := 0; i < cur.n; i++ {
		crow, grow := cur.irow(i), got.irow(i)
		for j := range crow {
			if crow[j] != grow[j] {
				t.Fatalf("row %d differs: %v vs %v", i, grow, crow)
			}
		}
	}
	if stats.Rows != got.Size() || stats.RawRows != int64(got.Size()) {
		t.Fatalf("stats = %+v for %d distinct rows: the projections forwarded duplicates", stats, got.Size())
	}
	// {X,Z} after step 1 drops Y: its dedup set is execution-owned state.
	if stats.PeakResidentRows <= int64(got.Size()) {
		t.Fatalf("PeakResidentRows = %d does not count the projection dedup set (result %d rows)",
			stats.PeakResidentRows, got.Size())
	}
	if streamed := tr.Counter(obs.CtrJoinProbeRows) - probed; streamed > probed {
		t.Fatalf("pipeline probed %d index rows, the JoinStep chain %d", streamed, probed)
	}
}

// closeCounter is a leaf whose Close calls are counted.
type closeCounter struct {
	schema Schema
	closes int
}

func (c *closeCounter) Schema() Schema         { return c.schema }
func (c *closeCounter) Next() ([]uint32, bool) { return nil, false }
func (c *closeCounter) Close()                 { c.closes++ }

// A pipeline whose construction fails midway closes every operator
// already built, exactly once: each constructor closes its input on
// error, so nothing is left holding a pooled frame.
func TestPipelineConstructionFailureClosesOperators(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadFacts("e(a, b). e(b, c). f(b, x). f(c, y). g(x, k). g(y, l)."); err != nil {
		t.Fatal(err)
	}
	db.SetStrictPredicates(true)
	q := cq.MustParseQuery("q(X, W) :- e(X, Y), f(Y, Z), g(Z, W)")
	bad := cq.Var("Nope")

	// Each constructor, failing over a counted leaf.
	for name, build := range map[string]func(in RowIterator) (RowIterator, error){
		"join": func(in RowIterator) (RowIterator, error) {
			return db.StreamJoin(in, cq.MustParseQuery("q(X) :- ghost(X)").Body[0])
		},
		"project": func(in RowIterator) (RowIterator, error) { return StreamProject(in, []cq.Var{"X", bad}) },
		"filter": func(in RowIterator) (RowIterator, error) {
			return db.StreamFilter(in, []cq.Comparison{{Left: bad, Op: cq.OpLT, Right: cq.Var("X")}})
		},
		"head": func(in RowIterator) (RowIterator, error) {
			return db.StreamHead(in, cq.Atom{Pred: "q", Args: []cq.Term{bad}})
		},
	} {
		leaf := &closeCounter{schema: Schema{"X", "Y"}}
		if it, err := build(leaf); err == nil {
			it.Close()
			t.Errorf("%s: bad input accepted", name)
		} else if leaf.closes != 1 {
			t.Errorf("%s: failed constructor closed its input %d times, want 1", name, leaf.closes)
		}
	}

	// Whole pipelines: every join built before the failure reports its
	// Close through the stream_joins counter, once.
	joinsClosed := func(run func() error) int64 {
		tr := obs.New()
		db.SetTracer(tr)
		defer db.SetTracer(nil)
		if err := run(); err == nil {
			t.Fatal("bad pipeline accepted")
		}
		return tr.Counter(obs.CtrStreamJoins)
	}
	if n := joinsClosed(func() error {
		_, err := db.BuildJoinPipeline(q.Body, []int{0, 1, 2}, [][]cq.Var{nil, nil, {"X", bad}})
		return err
	}); n != 2 {
		t.Errorf("bad retains at step 2: %d joins closed, want 2", n)
	}
	if n := joinsClosed(func() error {
		_, err := db.BuildJoinPipeline(q.Body, []int{0, 1, 2}, [][]cq.Var{nil, {bad}, nil})
		return err
	}); n != 1 {
		t.Errorf("bad retains at step 1: %d joins closed, want 1", n)
	}
	noHead := q.Clone()
	noHead.Head.Args[1] = bad
	if n := joinsClosed(func() error {
		_, _, err := db.StreamQuery(noHead, []int{0, 1, 2}, nil, false)
		return err
	}); n != 2 {
		t.Errorf("missing head variable: %d joins closed, want 2", n)
	}
}
