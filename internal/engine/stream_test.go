package engine

import (
	"errors"
	"strconv"
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

// evalBothWays holds Evaluate to the materialized reference on q and
// checks what a traced Evaluate reports: one join step per body atom
// after the first (the scan is not a join), and no more probed index
// rows than the reference's JoinStep chain.
func evalBothWays(t *testing.T, db *Database, q *cq.Query) {
	t.Helper()
	trWant, trGot := obs.New(), obs.New()
	db.SetTracer(trWant)
	want, err := evaluateMaterialized(db, q)
	if err != nil {
		t.Fatalf("evaluateMaterialized(%s): %v", q, err)
	}
	db.SetTracer(trGot)
	got, err := db.Evaluate(q)
	db.SetTracer(nil)
	if err != nil {
		t.Fatalf("Evaluate(%s): %v", q, err)
	}
	if !relIdentical(want, got) {
		t.Fatalf("Evaluate differs from the materialized reference for %s:\nmaterialized %v\nstreaming    %v", q, want.SortedRows(), got.SortedRows())
	}
	if steps, k := trGot.Counter(obs.CtrJoinSteps), int64(len(q.Body)); steps != k-1 {
		t.Errorf("%s: traced Evaluate ticked %d join steps, want %d", q, steps, k-1)
	}
	if g, w := trGot.Counter(obs.CtrJoinProbeRows), trWant.Counter(obs.CtrJoinProbeRows); g > w {
		t.Errorf("%s: Evaluate probed %d index rows, the materialized chain %d", q, g, w)
	}
}

// Evaluate (the streaming executor) is byte-identical to the
// materialized reference on random databases and queries (duplicate
// atoms, repeated variables, constants, partial heads).
func TestQuickEvaluateStreamMatchesEvaluate(t *testing.T) {
	f := func(seed int64) bool {
		db, q := randomDBAndQuery(absSeed(seed))
		want, err := evaluateMaterialized(db, q)
		if err != nil {
			return false
		}
		got, err := db.Evaluate(q)
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

// fuzzBytes hands out the fuzz input one byte at a time, each reduced
// modulo the caller's range, and zeros once it is used up.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// FuzzEvaluate decodes a database and a query from the fuzz input,
// structurally: up to 3 relations r0–r2 of arity 0–3 with up to 8 rows
// each over a 4-value domain, then a body of 1–4 atoms over those
// relations or the unknown predicate ghost, whose terms are variables
// from a pool of 4 (so repeated variables and self-joins) or constants
// (one never stored), a head that either lists every body variable or
// draws variables and constants, up to 2 comparisons (< or >=), and
// whether predicates are strict. It holds Evaluate byte-identical to
// the materialized reference, both to an UnknownPredicateError for a
// strict ghost, and a head that keeps every body variable to building
// no dedup table.
func FuzzEvaluate(f *testing.F) {
	f.Add([]byte{2, 2, 4, 0, 1, 2, 3, 1, 3, 3, 2, 1, 0, 3, 0, 0, 1, 1, 0, 1, 2, 0, 0, 1})
	f.Add([]byte{1, 2, 5, 0, 1, 1, 2, 2, 3, 0, 0, 3, 1, 2, 4, 1, 0, 2, 1, 3, 3, 0, 2, 2, 0, 0, 0, 1, 0, 1, 1, 2, 0, 0, 2, 4, 3, 1, 2, 0, 3, 4, 1, 0, 1, 1, 0, 0})
	f.Add([]byte{0, 1, 3, 0, 1, 3, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 3, 4, 0, 1, 1, 1, 1, 2, 2, 3, 3, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 2, 5, 2, 0, 1, 3, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		domain := []Value{"1", "2", "10", "b", "zz"} // zz is never stored
		db := NewDatabase()
		nrel := 1 + b.next(3)
		for r := 0; r < nrel; r++ {
			name := "r" + strconv.Itoa(r)
			db.Create(name, b.next(4))
			for n := b.next(9); n > 0; n-- {
				row := make(Tuple, db.Relation(name).Arity)
				for j := range row {
					row[j] = domain[b.next(4)]
				}
				if err := db.Insert(name, row); err != nil {
					t.Fatal(err)
				}
			}
		}
		pool := []cq.Var{"A", "B", "C", "D"}
		q := &cq.Query{Head: cq.Atom{Pred: "q"}, Body: make([]cq.Atom, 1+b.next(4))}
		ghost := false
		for i := range q.Body {
			name, arity := "ghost", 1+b.next(3)
			if p := b.next(nrel + 1); p < nrel {
				name = "r" + strconv.Itoa(p)
				arity = db.Relation(name).Arity
			} else {
				ghost = true
			}
			args := make([]cq.Term, arity)
			for j := range args {
				if k := b.next(6); k < len(pool) {
					args[j] = pool[k]
				} else {
					args[j] = domain[b.next(len(domain))]
				}
			}
			q.Body[i] = cq.Atom{Pred: name, Args: args}
		}
		vars := q.BodyVars().Sorted()
		if b.next(2) == 0 {
			for _, v := range vars {
				q.Head.Args = append(q.Head.Args, v)
			}
		}
		for n := b.next(4); n > 0; n-- {
			if k := b.next(len(vars) + 1); k < len(vars) {
				q.Head.Args = append(q.Head.Args, vars[k])
			} else {
				q.Head.Args = append(q.Head.Args, domain[b.next(len(domain))])
			}
		}
		for n := b.next(3); n > 0 && len(vars) > 0; n-- {
			c := cq.Comparison{Left: vars[b.next(len(vars))], Op: []cq.CompOp{cq.OpLT, cq.OpGE}[b.next(2)]}
			if b.next(2) == 0 {
				c.Right = vars[b.next(len(vars))]
			} else {
				c.Right = domain[b.next(len(domain))]
			}
			q.Comparisons = append(q.Comparisons, c)
		}
		strict := b.next(2) == 1
		db.SetStrictPredicates(strict)

		want, werr := evaluateMaterialized(db, q)
		got, gerr := db.Evaluate(q)
		if strict && ghost {
			var ue *UnknownPredicateError
			if !errors.As(werr, &ue) || !errors.As(gerr, &ue) {
				t.Fatalf("%s over a strict ghost: reference error %v, Evaluate error %v", q, werr, gerr)
			}
			return
		}
		if werr != nil || gerr != nil {
			t.Fatalf("%s: reference error %v, Evaluate error %v", q, werr, gerr)
		}
		if !relIdentical(want, got) {
			t.Fatalf("%s: Evaluate %v, materialized reference %v", q, got.Rows(), want.Rows())
		}
		if len(q.HeadVars()) == len(vars) && (got.set.n != 0 || got.set.tab.slots != nil) {
			t.Fatalf("%s keeps every body variable but built a dedup table of %d rows", q, got.set.n)
		}
	})
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
	it, err := db.buildJoinPipeline(q.Body, order, retains)
	if err != nil {
		t.Fatal(err)
	}
	got, stats := db.drainStream("ir", len(cur.Schema), it)
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
			return db.streamJoin(in, cq.MustParseQuery("q(X) :- ghost(X)").Body[0])
		},
		"project": func(in RowIterator) (RowIterator, error) { return streamProject(in, []cq.Var{"X", bad}) },
		"filter": func(in RowIterator) (RowIterator, error) {
			return db.streamFilter(in, []cq.Comparison{{Left: bad, Op: cq.OpLT, Right: cq.Var("X")}})
		},
		"head": func(in RowIterator) (RowIterator, error) {
			return db.streamHead(in, cq.Atom{Pred: "q", Args: []cq.Term{bad}})
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
		_, err := db.buildJoinPipeline(q.Body, []int{0, 1, 2}, [][]cq.Var{nil, nil, {"X", bad}})
		return err
	}); n != 2 {
		t.Errorf("bad retains at step 2: %d joins closed, want 2", n)
	}
	if n := joinsClosed(func() error {
		_, err := db.buildJoinPipeline(q.Body, []int{0, 1, 2}, [][]cq.Var{nil, {bad}, nil})
		return err
	}); n != 1 {
		t.Errorf("bad retains at step 1: %d joins closed, want 1", n)
	}
	noHead := q.Clone()
	noHead.Head.Args[1] = bad
	if n := joinsClosed(func() error {
		_, _, err := db.StreamQuery(noHead, []int{0, 1, 2}, nil)
		return err
	}); n != 2 {
		t.Errorf("missing head variable: %d joins closed, want 2", n)
	}
}
