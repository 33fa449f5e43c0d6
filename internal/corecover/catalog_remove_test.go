// Incremental RemoveView contract: the repaired catalog must be
// indistinguishable from a fresh CompileViews over the surviving
// definitions everywhere planning looks. Ids are compared by NAME, not
// by interned id — the incremental catalog shares its parent's
// append-only vocabulary, so its ids differ from a fresh catalog's.
package corecover

import (
	"testing"

	"viewplan/internal/cq"
	"viewplan/internal/views"
	"viewplan/internal/workload"
)

// requireCatalogEquiv asserts inc (an incremental RemoveView result) and
// fresh (CompileViews over the same surviving set) agree on every
// name-level observable: view order, shared View objects and their
// definition keys, class structure,
// the representative work set, base predicates, and mention lists.
func requireCatalogEquiv(t *testing.T, label string, inc, fresh *Catalog) {
	t.Helper()
	incNames, freshNames := inc.Names(), fresh.Names()
	if len(incNames) != len(freshNames) {
		t.Fatalf("%s: %d views, fresh has %d", label, len(incNames), len(freshNames))
	}
	for i := range incNames {
		if incNames[i] != freshNames[i] {
			t.Fatalf("%s: view %d is %s, fresh has %s", label, i, incNames[i], freshNames[i])
		}
		// A surviving view is the parent set's View object, so it keeps
		// the key memoized there; that key must be what keying the same
		// definition afresh yields.
		v := inc.vs.Views[i]
		if v != fresh.vs.Views[i] {
			t.Fatalf("%s: view %s is not shared with the parent set", label, incNames[i])
		}
		if views.DefinitionKey(v) != views.DefinitionKey(views.MustNewSet(v.Def).Views[0]) {
			t.Fatalf("%s: key %d differs for %s", label, i, incNames[i])
		}
	}
	if len(inc.classes) != len(fresh.classes) {
		t.Fatalf("%s: %d classes, fresh has %d", label, len(inc.classes), len(fresh.classes))
	}
	for i := range inc.classes {
		if len(inc.classes[i]) != len(fresh.classes[i]) {
			t.Fatalf("%s: class %d has %d members, fresh has %d",
				label, i, len(inc.classes[i]), len(fresh.classes[i]))
		}
		for j := range inc.classes[i] {
			if inc.classes[i][j].Name() != fresh.classes[i][j].Name() {
				t.Fatalf("%s: class %d member %d is %s, fresh has %s",
					label, i, j, inc.classes[i][j].Name(), fresh.classes[i][j].Name())
			}
		}
	}
	iw, fw := inc.work.Names(), fresh.work.Names()
	if len(iw) != len(fw) {
		t.Fatalf("%s: work has %d views, fresh has %d", label, len(iw), len(fw))
	}
	for i := range iw {
		if iw[i] != fw[i] {
			t.Fatalf("%s: work[%d] is %s, fresh has %s", label, i, iw[i], fw[i])
		}
	}
	// The prefilter index must describe the same predicates per
	// representative (by name — ids are vocabulary-private).
	for i := range iw {
		ip, fp := predNames(inc, inc.workPreds[i]), predNames(fresh, fresh.workPreds[i])
		if len(ip) != len(fp) {
			t.Fatalf("%s: workPreds[%d] has %d preds, fresh has %d", label, i, len(ip), len(fp))
		}
		for j := range ip {
			if ip[j] != fp[j] {
				t.Fatalf("%s: workPreds[%d][%d] is %s, fresh has %s", label, i, j, ip[j], fp[j])
			}
		}
	}
	ib, fb := inc.BasePreds(), fresh.BasePreds()
	if len(ib) != len(fb) {
		t.Fatalf("%s: BasePreds %v, fresh %v", label, ib, fb)
	}
	for i := range ib {
		if ib[i] != fb[i] {
			t.Fatalf("%s: BasePreds %v, fresh %v", label, ib, fb)
		}
	}
	for _, p := range fb {
		im, fm := inc.ViewsMentioning(p), fresh.ViewsMentioning(p)
		if len(im) != len(fm) {
			t.Fatalf("%s: ViewsMentioning(%s) %v, fresh %v", label, p, im, fm)
		}
		for i := range im {
			if im[i] != fm[i] {
				t.Fatalf("%s: ViewsMentioning(%s) %v, fresh %v", label, p, im, fm)
			}
		}
	}
}

func predNames(c *Catalog, ids []uint32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = c.PredName(id)
	}
	return out
}

// TestRemoveViewMatchesFreshCompile removes every view, one at a time,
// from a hand-built set that exercises all three repair cases —
// non-representative member, sole-member class, and removed
// representative (forcing a class re-slot) — and checks the incremental
// catalog against a fresh compile, structurally and through planning.
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
		inc, err := cat.RemoveView(name)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Generation() <= cat.Generation() {
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
		requireCatalogEquiv(t, "remove "+name, inc, fresh)

		got, err := CoreCover(q, nil, Options{Catalog: inc})
		if err != nil {
			t.Fatal(err)
		}
		want, err := CoreCover(q, nil, Options{Catalog: fresh})
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, "plan after remove "+name, want, got)
	}

	// Chained removals exercise the shared-vocabulary lineage: ids stay
	// stable while the name-level views drop out one by one.
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
	// A predicate mentioned only by removed views (e2, after v4/v5/v2 are
	// gone) resolves through the shared interner but reports no mentions
	// and leaves BasePreds.
	if got := chain.ViewsMentioning("e2"); len(got) != 0 {
		t.Fatalf("e2 still mentioned by %v after its views were removed", got)
	}
	if _, ok := chain.LookupPred("e2"); !ok {
		t.Fatal("e2 no longer resolves: the lineage should share its interner")
	}
	for _, p := range chain.BasePreds() {
		if p == "e2" {
			t.Fatal("e2 still in BasePreds after its views were removed")
		}
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
		inc, err := cat.RemoveView(name)
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
		requireCatalogEquiv(t, "remove "+name, inc, fresh)

		got, err := CoreCover(inst.Query, nil, Options{Catalog: inc})
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
