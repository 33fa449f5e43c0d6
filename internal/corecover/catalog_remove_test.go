// RemoveView contract: the successor catalog must be indistinguishable
// from a fresh CompileViews over the surviving definitions everywhere
// planning looks — view order, shared View objects and their keys,
// classes, the representative work set, the prefilter ids and every
// planning Result.
package corecover

import (
	"testing"

	"viewplan/internal/cq"
	"viewplan/internal/views"
	"viewplan/internal/workload"
)

// requireCatalogEquiv asserts next (a RemoveView result) and fresh
// (CompileViews over the same surviving set) agree on every observable:
// view order, shared View objects and their definition keys, class
// structure, the representative work set, and the prefilter ids.
func requireCatalogEquiv(t *testing.T, label string, next, fresh *Catalog) {
	t.Helper()
	nextNames, freshNames := next.Names(), fresh.Names()
	if len(nextNames) != len(freshNames) {
		t.Fatalf("%s: %d views, fresh has %d", label, len(nextNames), len(freshNames))
	}
	for i := range nextNames {
		if nextNames[i] != freshNames[i] {
			t.Fatalf("%s: view %d is %s, fresh has %s", label, i, nextNames[i], freshNames[i])
		}
		// A surviving view is the parent set's View object, so it keeps
		// the key memoized there; that key must be what keying the same
		// definition afresh yields.
		v := next.vs.Views[i]
		if v != fresh.vs.Views[i] {
			t.Fatalf("%s: view %s is not shared with the parent set", label, nextNames[i])
		}
		if views.DefinitionKey(v) != views.DefinitionKey(views.MustNewSet(v.Def).Views[0]) {
			t.Fatalf("%s: key %d differs for %s", label, i, nextNames[i])
		}
	}
	if len(next.classes) != len(fresh.classes) {
		t.Fatalf("%s: %d classes, fresh has %d", label, len(next.classes), len(fresh.classes))
	}
	for i := range next.classes {
		if len(next.classes[i]) != len(fresh.classes[i]) {
			t.Fatalf("%s: class %d has %d members, fresh has %d",
				label, i, len(next.classes[i]), len(fresh.classes[i]))
		}
		for j := range next.classes[i] {
			if next.classes[i][j].Name() != fresh.classes[i][j].Name() {
				t.Fatalf("%s: class %d member %d is %s, fresh has %s",
					label, i, j, next.classes[i][j].Name(), fresh.classes[i][j].Name())
			}
		}
	}
	iw, fw := next.work.Names(), fresh.work.Names()
	if len(iw) != len(fw) {
		t.Fatalf("%s: work has %d views, fresh has %d", label, len(iw), len(fw))
	}
	for i := range iw {
		if iw[i] != fw[i] {
			t.Fatalf("%s: work[%d] is %s, fresh has %s", label, i, iw[i], fw[i])
		}
	}
	// The prefilter ids are numbered over the work set alone, so equal
	// work sets number their predicates identically.
	for i := range iw {
		ip, fp := next.workPreds[i], fresh.workPreds[i]
		if len(ip) != len(fp) {
			t.Fatalf("%s: workPreds[%d] has %d preds, fresh has %d", label, i, len(ip), len(fp))
		}
		for j := range ip {
			if ip[j] != fp[j] {
				t.Fatalf("%s: workPreds[%d][%d] is %d, fresh has %d", label, i, j, ip[j], fp[j])
			}
		}
	}
}

// TestRemoveViewMatchesFreshCompile removes every view, one at a time,
// from a hand-built set whose removals cover every class shape — a
// non-representative member, a sole-member class, and a representative
// whose class then moves to its next member's first occurrence — and
// checks the successor catalog against a fresh compile, structurally and
// through planning.
func TestRemoveViewMatchesFreshCompile(t *testing.T) {
	vs := views.MustNewSet(
		cq.MustParseQuery("v1(X, Z) :- e0(X, Y), e1(Y, Z)"),
		cq.MustParseQuery("v2(X, Y) :- e2(X, Y)"),
		cq.MustParseQuery("v3(A, C) :- e0(A, B), e1(B, C)"), // ≡ v1
		cq.MustParseQuery("v4(X, Z) :- e1(X, Y), e2(Y, Z)"),
		cq.MustParseQuery("v5(A, C) :- e1(A, B), e2(B, C)"), // ≡ v4
		cq.MustParseQuery("v6(P, R) :- e0(P, Q), e1(Q, R)"), // ≡ v1
	)
	cat, err := CompileViews(vs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X, W) :- e0(X, Y), e1(Y, Z), e2(Z, W)")
	for _, name := range vs.Names() {
		next, err := cat.RemoveView(name)
		if err != nil {
			t.Fatal(err)
		}
		if next.Generation() <= cat.Generation() {
			t.Fatalf("remove %s: generation not fresh", name)
		}
		rest, err := vs.Remove(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := CompileViews(rest, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireCatalogEquiv(t, "remove "+name, next, fresh)

		got, err := CoreCover(q, nil, Options{Catalog: next})
		if err != nil {
			t.Fatal(err)
		}
		want, err := CoreCover(q, nil, Options{Catalog: fresh})
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, "plan after remove "+name, want, got)
	}

	// Chained removals: each successor is built from its parent's set,
	// and removing v4, v5 and v2 leaves no view over e2.
	chain := cat
	remaining := append([]string(nil), vs.Names()...)
	for _, name := range []string{"v4", "v5", "v2"} {
		var err error
		chain, err = chain.RemoveView(name)
		if err != nil {
			t.Fatal(err)
		}
		kept := remaining[:0:0]
		for _, n := range remaining {
			if n != name {
				kept = append(kept, n)
			}
		}
		remaining = kept
		rest, err := vs.Subset(remaining)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := CompileViews(rest, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireCatalogEquiv(t, "chain remove "+name, chain, fresh)
	}
	if _, ok := chain.predIDs["e2"]; ok {
		t.Fatal("e2 still has a prefilter id after its views were removed")
	}
}

// TestRemoveViewMatchesFreshCompileWorkload repeats the check over a
// generated workload large enough that class membership is not
// hand-picked, removing every view in turn.
func TestRemoveViewMatchesFreshCompileWorkload(t *testing.T) {
	inst, err := workload.Generate(workload.Config{Shape: workload.Star, QuerySubgoals: 6, NumViews: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := CompileViews(inst.Views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range inst.Views.Names() {
		next, err := cat.RemoveView(name)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := inst.Views.Remove(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := CompileViews(rest, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireCatalogEquiv(t, "remove "+name, next, fresh)

		got, err := CoreCover(inst.Query, nil, Options{Catalog: next})
		if err != nil {
			t.Fatal(err)
		}
		want, err := CoreCover(inst.Query, nil, Options{Catalog: fresh})
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, "plan after remove "+name, want, got)
	}
}
