package views

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"viewplan/internal/containment"
	"viewplan/internal/cq"
)

// The car-loc-part running example from the paper (Example 1.1).
const carLocPartViews = `
	v1(M, D, C) :- car(M, D), loc(D, C).
	v2(S, M, C) :- part(S, M, C).
	v3(S) :- car(M, a), loc(a, C), part(S, M, C).
	v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
	v5(M, D, C) :- car(M, D), loc(D, C).
`

const carLocPartQuery = "q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)"

func mustSet(t *testing.T, src string) *Set {
	t.Helper()
	s, err := ParseSet(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSetValidation(t *testing.T) {
	if _, err := ParseSet("v(X) :- p(X). v(Y) :- r(Y)."); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names not rejected: %v", err)
	}
	if _, err := NewSet(&cq.Query{Head: cq.ParseAtomArgs("v", "X")}); err == nil {
		t.Error("empty body not rejected")
	}
}

func TestExpandP1(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	p1 := cq.MustParseQuery("q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)")
	exp, err := s.Expand(p1)
	if err != nil {
		t.Fatal(err)
	}
	want := cq.MustParseQuery("q1(S, C) :- car(M, a), loc(a, C1), car(M1, a), loc(a, C), part(S, M, C)")
	if !containment.Equivalent(exp, want) {
		t.Errorf("expansion = %s", exp)
	}
	if len(exp.Body) != 5 {
		t.Errorf("expansion has %d subgoals, want 5", len(exp.Body))
	}
}

func TestExpandFreshExistentials(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	// v3 has existential M and C; expanding two copies must not share them.
	p := cq.MustParseQuery("q(S) :- v3(S), v3(S)")
	exp, err := s.Expand(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Body) != 6 {
		t.Fatalf("expansion = %s", exp)
	}
	// The two car subgoals must use different fresh variables.
	var carVars []cq.Term
	for _, a := range exp.Body {
		if a.Pred == "car" {
			carVars = append(carVars, a.Args[0])
		}
	}
	if len(carVars) != 2 || carVars[0] == carVars[1] {
		t.Errorf("existentials not freshened: %v", carVars)
	}
}

func TestExpandPassesThroughBasePredicates(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	p := cq.MustParseQuery("q(S, C) :- v2(S, M, C), loc(a, C)")
	exp, err := s.Expand(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Body) != 2 {
		t.Fatalf("expansion = %s", exp)
	}
	if exp.Body[1].Pred != "loc" {
		t.Errorf("base subgoal not passed through: %s", exp)
	}
}

func TestExpandArityMismatch(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	p := cq.MustParseQuery("q(S) :- v3(S, S)")
	if _, err := s.Expand(p); err == nil {
		t.Error("arity mismatch not rejected")
	}
}

func TestIsEquivalentRewriting(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	q := cq.MustParseQuery(carLocPartQuery)
	cases := []struct {
		src  string
		want bool
	}{
		{"q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)", true}, // P1
		{"q1(S, C) :- v1(M, a, C), v2(S, M, C)", true},                // P2
		{"q1(S, C) :- v3(S), v1(M, a, C), v2(S, M, C)", true},         // P3
		{"q1(S, C) :- v4(M, a, C, S)", true},                          // P4
		{"q1(S, C) :- v1(M, a, C1), v5(M1, a, C), v2(S, M, C)", true}, // P5
		{"q1(S, C) :- v2(S, M, C)", false},                            // too weak: loses car/loc join
		{"q1(S, C) :- v2(S, M, C), v3(S)", false},                     // not equivalent
		{"q1(S, C) :- part(S, M, C), v1(M, a, C)", false},             // uses base relation
	}
	for _, c := range cases {
		p := cq.MustParseQuery(c.src)
		if got := s.IsEquivalentRewriting(p, q); got != c.want {
			t.Errorf("IsEquivalentRewriting(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestComputeTuplesCarLocPart(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	q := cq.MustParseQuery(carLocPartQuery)
	tuples := ComputeTuples(q, s, nil)
	want := map[string]bool{
		"v1(M, a, C)":    false,
		"v2(S, M, C)":    false,
		"v3(S)":          false,
		"v4(M, a, C, S)": false,
		"v5(M, a, C)":    false,
	}
	if len(tuples) != len(want) {
		t.Fatalf("got %d tuples: %v", len(tuples), tuples)
	}
	for _, tp := range tuples {
		str := tp.Atom.String()
		if _, ok := want[str]; !ok {
			t.Errorf("unexpected view tuple %s", str)
			continue
		}
		want[str] = true
	}
	for str, seen := range want {
		if !seen {
			t.Errorf("missing view tuple %s", str)
		}
	}
}

func TestComputeTuplesExample41(t *testing.T) {
	// Example 4.1: T(Q,V) = {v1(X,Z), v1(Z,Z), v2(Z,Y)}.
	s := mustSet(t, `
		v1(A, B) :- a(A, B), a(B, B).
		v2(C, D) :- a(C, E), b(C, D).
	`)
	q := cq.MustParseQuery("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)")
	tuples := ComputeTuples(q, s, nil)
	got := make(map[string]bool)
	for _, tp := range tuples {
		got[tp.Atom.String()] = true
	}
	for _, w := range []string{"v1(X, Z)", "v1(Z, Z)", "v2(Z, Y)"} {
		if !got[w] {
			t.Errorf("missing view tuple %s (got %v)", w, got)
		}
	}
	if len(tuples) != 3 {
		t.Errorf("got %d tuples, want 3: %v", len(tuples), tuples)
	}
}

func TestTupleExpansion(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	q := cq.MustParseQuery(carLocPartQuery)
	tuples := ComputeTuples(q, s, nil)
	var v3t *Tuple
	for i := range tuples {
		if tuples[i].View.Name() == "v3" {
			v3t = &tuples[i]
		}
	}
	if v3t == nil {
		t.Fatal("v3 tuple missing")
	}
	gen := cq.NewFreshGen("_E", q.Vars())
	body, ex, err := v3t.Expansion(gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 3 {
		t.Fatalf("expansion body = %v", body)
	}
	if len(ex) != 2 {
		t.Errorf("existentials = %v, want 2 fresh vars", ex)
	}
	// The S argument must be preserved.
	foundS := false
	for _, a := range body {
		if a.Pred == "part" && a.Args[0] == cq.Var("S") {
			foundS = true
		}
	}
	if !foundS {
		t.Errorf("distinguished S not bound in expansion: %v", body)
	}
}

func TestEquivalenceClasses(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	classes, _ := s.EquivalenceClasses()
	// v1 and v5 are identical definitions; v2, v3, v4 are singletons.
	if len(classes) != 4 {
		t.Fatalf("got %d classes: %v", len(classes), classes)
	}
	var pair []*View
	for _, c := range classes {
		if len(c) == 2 {
			pair = c
		} else if len(c) != 1 {
			t.Errorf("unexpected class size %d", len(c))
		}
	}
	if pair == nil {
		t.Fatal("no two-element class")
	}
	names := map[string]bool{pair[0].Name(): true, pair[1].Name(): true}
	if !names["v1"] || !names["v5"] {
		t.Errorf("v1/v5 not grouped: %v", names)
	}
}

func TestEquivalenceClassesSemantic(t *testing.T) {
	// w2 has a redundant subgoal: equivalent to w1 but not isomorphic.
	s := mustSet(t, `
		w1(X) :- e(X, X).
		w2(X) :- e(X, X), e(X, Y).
	`)
	classes, _ := s.EquivalenceClasses()
	if len(classes) != 1 || len(classes[0]) != 2 {
		t.Errorf("semantically equivalent views not merged: %v", classes)
	}
}

func TestRepresentatives(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	classes, reps := s.EquivalenceClasses()
	if reps.Len() != 4 {
		t.Errorf("representatives = %v", reps.Names())
	}
	for i, c := range classes {
		if reps.Views[i] != c[0] || reps.ByName(c[0].Name()) != c[0] {
			t.Errorf("representative %d is %s, class head is %s", i, reps.Views[i].Name(), c[0].Name())
		}
	}
}

func TestBasePreds(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	got := s.BasePreds()
	want := []string{"car", "loc", "part"}
	if len(got) != len(want) {
		t.Fatalf("BasePreds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BasePreds = %v, want %v", got, want)
		}
	}
}

func TestSubset(t *testing.T) {
	s := mustSet(t, carLocPartViews)
	sub, err := s.Subset([]string{"v2", "v4"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || sub.Names()[0] != "v2" {
		t.Errorf("Subset = %v", sub.Names())
	}
	if _, err := s.Subset([]string{"nope"}); err == nil {
		t.Error("unknown name not rejected")
	}
}

// pathViews returns n view definitions w0…w(n-1) in ten equivalence
// classes: view i is a path of 1+(i%10)%5 atoms over predicate
// e<(i%10)/5>, head (first, last), spelled with variables private to
// the view so that class members are equivalent but not identical.
func pathViews(n int) []*cq.Query {
	defs := make([]*cq.Query, n)
	for i := range defs {
		k := i % 10
		var b strings.Builder
		fmt.Fprintf(&b, "w%d(A%d_0, A%d_%d) :- ", i, i, i, 1+k%5)
		for j := 0; j <= k%5; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "e%d(A%d_%d, A%d_%d)", k/5, i, j, i, j+1)
		}
		defs[i] = cq.MustParseQuery(b.String())
	}
	return defs
}

// Views are shared by every set, subset and catalog that holds them, so
// their key memo is keyed from many goroutines at once. Run under -race.
func TestDefinitionKeyConcurrent(t *testing.T) {
	defs := pathViews(50)
	want := make([]string, len(defs))
	for i, v := range MustNewSet(defs...).Views {
		want[i] = DefinitionKey(v)
	}
	shared := MustNewSet(defs...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				classes, reps := shared.EquivalenceClasses()
				if len(classes) != 10 || reps.Len() != 10 {
					t.Errorf("goroutine %d: %d classes, %d representatives, want 10", g, len(classes), reps.Len())
				}
			}
			for i := range shared.Views {
				j := (i + 7*g) % len(shared.Views)
				if got := DefinitionKey(shared.Views[j]); got != want[j] {
					t.Errorf("goroutine %d: key of %s is %q, want %q", g, shared.Views[j].Name(), got, want[j])
				}
			}
		}(g)
	}
	wg.Wait()
}

// Once a set's views are keyed, grouping them again minimizes and
// labels nothing: it allocates a constant number of tables, not one
// key per view.
func TestEquivalenceClassesMemoized(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	s := MustNewSet(pathViews(200)...)
	classes, _ := s.EquivalenceClasses()
	allocs := testing.AllocsPerRun(20, func() { s.EquivalenceClasses() })
	if limit := float64(len(classes) + 8); allocs > limit {
		t.Fatalf("regrouping %d keyed views into %d classes: %.0f allocs, want at most %.0f",
			s.Len(), len(classes), allocs, limit)
	}
	t.Logf("regrouping %d keyed views into %d classes: %.0f allocs", s.Len(), len(classes), allocs)
}

// A view whose minimized definition has no exact canonical key (here,
// over the labeling's 16-atom cap) is grouped with no other view: two
// non-equivalent 17-atom views that share every atom shape stay apart,
// and so do two copies of one such view.
func TestDefinitionKeyUnkeyedNeverMerges(t *testing.T) {
	path := func(name string, closing bool) *cq.Query {
		var b strings.Builder
		fmt.Fprintf(&b, "%s(X0, X17) :- ", name)
		n := 17
		if closing {
			n = 16
		}
		for j := 0; j < n; j++ {
			fmt.Fprintf(&b, "r(X%d, X%d), ", j, j+1)
		}
		if closing {
			b.WriteString("r(X17, X0), ")
		}
		return cq.MustParseQuery(strings.TrimSuffix(b.String(), ", "))
	}
	s := MustNewSet(path("v1", false), path("v2", true), path("v3", false))
	classes, reps := s.EquivalenceClasses()
	if len(classes) != 3 || reps.Len() != 3 {
		t.Fatalf("oversized views grouped: %d classes", len(classes))
	}
	if DefinitionKey(s.Views[0]) == DefinitionKey(s.Views[1]) {
		t.Fatal("non-equivalent oversized views share a key")
	}
}
