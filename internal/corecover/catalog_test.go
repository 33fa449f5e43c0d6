// Catalog compilation contract: grouping parity with the per-request
// path, copy-on-write sharing, generation freshness, and the vocabulary
// accessors.
package corecover

import (
	"testing"
	"unsafe"

	"viewplan/internal/cq"
	"viewplan/internal/views"
	"viewplan/internal/workload"
)

func TestCompileViewsGroupingMatchesEquivalenceClasses(t *testing.T) {
	inst, err := workload.Generate(workload.Config{Shape: workload.Star, QuerySubgoals: 6, NumViews: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := inst.Views.EquivalenceClasses()
	cat, err := CompileViews(inst.Views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.classes) != len(want) {
		t.Fatalf("%d classes, want %d", len(cat.classes), len(want))
	}
	for i := range want {
		if len(cat.classes[i]) != len(want[i]) {
			t.Fatalf("class %d has %d members, want %d", i, len(cat.classes[i]), len(want[i]))
		}
		for j := range want[i] {
			if cat.classes[i][j].Name() != want[i][j].Name() {
				t.Fatalf("class %d member %d is %s, want %s",
					i, j, cat.classes[i][j].Name(), want[i][j].Name())
			}
		}
	}
	if cat.NumClasses() != len(want) || cat.work.Len() != len(want) {
		t.Fatalf("NumClasses=%d work=%d, want %d", cat.NumClasses(), cat.work.Len(), len(want))
	}
}

func TestCompileViewsRejectsComparisons(t *testing.T) {
	vs, err := views.ParseSet("v1(X, Y) :- e0(X, Y), X < Y.")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileViews(vs, Options{}); err == nil {
		t.Fatal("comparison-bearing view compiled")
	}
}

func TestCatalogCopyOnWriteSharesViewsAndKeys(t *testing.T) {
	vs := views.MustNewSet(
		cq.MustParseQuery("v1(X, Y) :- e0(X, Y)"),
		cq.MustParseQuery("v2(X, Y) :- e1(X, Y)"),
	)
	cat, err := CompileViews(vs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keyData := make([]*byte, cat.Len())
	for i, v := range cat.vs.Views {
		keyData[i] = unsafe.StringData(views.DefinitionKey(v))
	}
	grown, err := cat.AddViews(cq.MustParseQuery("v3(X, Z) :- e0(X, Y), e1(Y, Z)"))
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 2 || grown.Len() != 3 {
		t.Fatalf("Len: cat=%d grown=%d, want 2 and 3", cat.Len(), grown.Len())
	}
	// COW: the surviving View objects, and with them their memoized keys,
	// are shared: the key is the very string CompileViews computed.
	for i, v := range cat.vs.Views {
		if grown.vs.Views[i] != v {
			t.Fatalf("AddViews did not share View %d", i)
		}
		if unsafe.StringData(views.DefinitionKey(grown.vs.Views[i])) != keyData[i] {
			t.Fatalf("AddViews recomputed key %d", i)
		}
	}
	if grown.Generation() <= cat.Generation() {
		t.Fatalf("generations not fresh: %d then %d", cat.Generation(), grown.Generation())
	}

	shrunk, err := grown.RemoveView("v1")
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Len() != 2 || shrunk.Views().ByName("v1") != nil {
		t.Fatalf("RemoveView left %v", shrunk.Names())
	}
	if shrunk.vs.Views[0] != grown.vs.Views[1] || shrunk.vs.Views[1] != grown.vs.Views[2] {
		t.Fatal("RemoveView did not share the surviving Views")
	}
	if shrunk.Generation() <= grown.Generation() {
		t.Fatal("RemoveView did not mint a fresh generation")
	}
	// The originals are untouched.
	if cat.Len() != 2 || grown.Len() != 3 {
		t.Fatal("copy-on-write mutated an ancestor")
	}
	if _, err := cat.RemoveView("nope"); err == nil {
		t.Fatal("removing an unknown view succeeded")
	}
	if _, err := cat.AddViews(cq.MustParseQuery("v1(X, Y) :- e1(X, Y)")); err == nil {
		t.Fatal("duplicate view name accepted")
	}
}

func TestCatalogVocabulary(t *testing.T) {
	vs := views.MustNewSet(
		cq.MustParseQuery("v1(X, Y) :- e0(X, Y)"),
		cq.MustParseQuery("v2(X, Z) :- e0(X, Y), e1(Y, Z)"),
	)
	cat, err := CompileViews(vs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := cat.LookupPred("e0")
	if !ok {
		t.Fatal("e0 not in the vocabulary")
	}
	if cat.PredName(id) != "e0" {
		t.Fatalf("PredName(%d) = %s", id, cat.PredName(id))
	}
	if _, ok := cat.LookupPred("absent"); ok {
		t.Fatal("unknown predicate resolved")
	}
	if got := cat.ViewsMentioning("e0"); len(got) != 2 || got[0] != "v1" || got[1] != "v2" {
		t.Fatalf("ViewsMentioning(e0) = %v", got)
	}
	if got := cat.ViewsMentioning("e1"); len(got) != 1 || got[0] != "v2" {
		t.Fatalf("ViewsMentioning(e1) = %v", got)
	}
	if got := cat.ViewsMentioning("absent"); got != nil {
		t.Fatalf("ViewsMentioning(absent) = %v", got)
	}
	want := vs.BasePreds()
	got := cat.BasePreds()
	if len(got) != len(want) {
		t.Fatalf("BasePreds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BasePreds = %v, want %v", got, want)
		}
	}
}

func TestCatalogGenerationZeroNeverIssued(t *testing.T) {
	vs := views.MustNewSet(cq.MustParseQuery("v1(X, Y) :- e0(X, Y)"))
	cat, err := CompileViews(vs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cat.Generation() == 0 {
		t.Fatal("generation 0 was issued; the zero value must stay unmatchable")
	}
}
