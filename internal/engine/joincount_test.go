package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"viewplan/internal/cq"
	"viewplan/internal/obs"
)

// joinCountDB is a small database with skewed fan-out, duplicates in
// every column, a ternary relation for constant and repeated-variable
// subgoals, and one empty relation.
func joinCountDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	rng := rand.New(rand.NewSource(5))
	val := func(n int) Value { return Value(string(rune('a' + rng.Intn(n)))) }
	for i := 0; i < 40; i++ {
		for _, err := range []error{
			db.Insert("e", Tuple{val(6), val(6)}),
			db.Insert("f", Tuple{val(6), val(4)}),
			db.Insert("t", Tuple{val(3), val(3), val(2)}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	db.Create("empty", 1)
	return db
}

// The contract of the count-only probe, checked against the kernel that
// materializes: JoinCount is JoinStep(...).Size() when that is at most
// the limit, and otherwise anything above the limit — for every limit
// from 0 to the true size, so an early stop can never misreport which
// side of the limit the join is on. JoinStep's own output, which no
// longer carries a dedup set, must be duplicate-free.
func TestJoinCountMatchesJoinStepSize(t *testing.T) {
	db := joinCountDB(t)
	atom := func(s string) cq.Atom { return cq.MustParseQuery("q(k) :- " + s).Body[0] }
	join := func(cur *VarRelation, s string) *VarRelation {
		t.Helper()
		out, err := db.JoinStep(cur, atom(s), nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	unit := UnitVarRelation() // its own symbol table, like every search's root
	ex := join(unit, "e(X, Y)")
	foreign := NewVarRelation(Schema{"X", "W"})
	for _, row := range []Tuple{{"a", "only-here"}, {"b", "only-here"}, {"nosuch", "w"}} {
		foreign.Insert(row)
	}

	cases := []struct {
		name string
		cur  *VarRelation
		atom string
	}{
		{"scan", unit, "e(X, Y)"},
		{"key join", ex, "f(Y, Z)"},
		{"two-column join", ex, "e(X, Y)"},
		{"three-column join", join(ex, "t(X, Y, Z)"), "t(X, Y, Z)"},
		{"constant", ex, "f(Y, a)"},
		{"constant only", unit, "t(a, b, a)"},
		{"repeated variable, bound", ex, "t(X, X, Z)"},
		{"repeated variable, new", ex, "t(U, U, Y)"},
		{"repeated variable and constant", unit, "t(U, U, a)"},
		{"never-interned constant", ex, "f(Y, nosuch)"},
		{"cross product", ex, "f(U, V)"},
		{"cross product, constant", ex, "t(U, V, a)"},
		{"cross product, repeated variable", ex, "t(U, U, V)"},
		{"cross product, never-interned constant", ex, "f(U, nosuch)"},
		{"empty relation", ex, "empty(X)"},
		{"empty left", join(ex, "empty(X)"), "f(Y, Z)"},
		{"foreign interner", foreign, "e(X, Y)"},
		{"foreign interner, cross product", foreign, "f(U, V)"},
		{"unknown predicate", ex, "ghost(X, Q)"},
	}
	for _, tc := range cases {
		a := atom(tc.atom)
		out := join(tc.cur, tc.atom)
		want := out.Size()
		t.Logf("%s: %d rows", tc.name, want)

		seen := newRowSet(len(out.Schema))
		var distinctRows []uint32
		for i := 0; i < out.n; i++ {
			addRow(seen, &distinctRows, out.irow(i))
		}
		if distinct := seen.n; distinct != want {
			t.Errorf("%s: JoinStep produced %d rows, %d distinct", tc.name, want, distinct)
		}

		got, err := db.JoinCount(tc.cur, a, math.MaxInt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s: JoinCount = %d, JoinStep size = %d", tc.name, got, want)
		}
		for limit := 0; limit <= want; limit++ {
			got, err := db.JoinCount(tc.cur, a, limit)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if limit == want && got != want || limit < want && got <= limit {
				t.Errorf("%s: JoinCount(limit %d) = %d with true size %d", tc.name, limit, got, want)
			}
		}
	}
}

// An unknown predicate is to the count what it is to the join: empty and
// observable by default, a typed error in strict mode. And a count is
// probe work only — it must not pose as a materialized join.
func TestJoinCountUnknownPredicateAndCounters(t *testing.T) {
	db := joinCountDB(t)
	tr := obs.New()
	db.SetTracer(tr)
	ghost := cq.MustParseQuery("q(X) :- ghost(X)").Body[0]
	if n, err := db.JoinCount(UnitVarRelation(), ghost, math.MaxInt); err != nil || n != 0 {
		t.Errorf("lenient: count %d, err %v; want 0, nil", n, err)
	}
	if got := tr.Counter(obs.CtrUnknownPreds); got != 1 {
		t.Errorf("unknown_predicates = %d, want 1", got)
	}
	db.SetStrictPredicates(true)
	_, err := db.JoinCount(UnitVarRelation(), ghost, math.MaxInt)
	var upe *UnknownPredicateError
	if !errors.As(err, &upe) || upe.Pred != "ghost" {
		t.Errorf("strict: err = %v, want *UnknownPredicateError for ghost", err)
	}
	db.SetStrictPredicates(false)

	ex, err := db.JoinStep(UnitVarRelation(), cq.MustParseQuery("q(k) :- e(X, Y)").Body[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	steps, rows, probes := tr.Counter(obs.CtrJoinSteps), tr.Counter(obs.CtrJoinRows), tr.Counter(obs.CtrJoinProbeRows)
	n, err := db.JoinCount(ex, cq.MustParseQuery("q(k) :- f(Y, Z)").Body[0], math.MaxInt)
	if err != nil || n == 0 {
		t.Fatalf("count %d, err %v", n, err)
	}
	if tr.Counter(obs.CtrJoinSteps) != steps || tr.Counter(obs.CtrJoinRows) != rows {
		t.Error("a count ticked join_steps or join_rows")
	}
	if got := tr.Counter(obs.CtrJoinProbeRows) - probes; got != int64(n) {
		t.Errorf("join_probe_rows grew by %d for an unchecked count of %d", got, n)
	}
}
