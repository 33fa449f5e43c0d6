// Catalog compilation contract: grouping parity with the per-request
// path, copy-on-write sharing, and generation freshness.
package corecover

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
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

// TestCatalogMutationScale bounds a view mutation on a 5000-view
// catalog. Every mutation is one newCatalog pass over the successor set,
// so an add/remove pair costs two linear passes; a symbol table with a
// per-lookup scan makes the pass quadratic and a pair cost tens of
// milliseconds. The median of five pairs must stay under 25 ms, and each
// pair must restore the original grouping. Even pairs add a renamed copy
// of an existing view (it joins that view's class); odd pairs add a new
// definition.
func TestCatalogMutationScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock bound: skipped under -short and -race")
	}
	const numViews, pairs = 5000, 5
	inst, err := workload.ScaleCatalog(numViews, 7)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := CompileViews(inst.Views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := catalogGrouping(cat)
	vocab := workload.ScaleVocab(numViews)
	times := make([]time.Duration, pairs)
	for i := range times {
		name := fmt.Sprintf("churn%d", i)
		def := cq.MustParseQuery(fmt.Sprintf("%s(Y0, Y1, Y2) :- e%d(Y0, Y1), e%d(Y0, Y2)",
			name, 1+(7*i)%vocab, 1+(13*i+5)%vocab))
		if i%2 == 0 {
			def = inst.Views.Views[(i*997)%numViews].Def.Clone()
			def.Head.Pred = name
		}
		// Collect the previous pair's garbage (and the set-up's) first,
		// so a pair is not charged for a cycle it did not cause.
		runtime.GC()
		start := time.Now()
		grown, err := cat.AddViews(def)
		if err != nil {
			t.Fatal(err)
		}
		back, err := grown.RemoveView(name)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = time.Since(start)
		if grown.Len() != numViews+1 || back.Len() != numViews {
			t.Fatalf("pair %d: %d views after add, %d after remove", i, grown.Len(), back.Len())
		}
		if i%2 == 0 && grown.NumClasses() != cat.NumClasses() {
			t.Fatalf("pair %d: the renamed copy opened a class instead of joining one", i)
		}
		if got := catalogGrouping(back); !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d: removing %s did not restore the original classes and work set", i, name)
		}
	}
	slices.Sort(times)
	median := times[pairs/2]
	t.Logf("%d-view AddViews+RemoveView: median %v of %v", numViews, median, times)
	if median > 25*time.Millisecond {
		t.Fatalf("%d-view AddViews+RemoveView median %v, bound 25ms", numViews, median)
	}
}

// catalogGrouping renders a catalog's classes and work set by view name.
func catalogGrouping(c *Catalog) [][]string {
	out := [][]string{c.work.Names()}
	for _, cl := range c.classes {
		names := make([]string, len(cl))
		for i, v := range cl {
			names[i] = v.Name()
		}
		out = append(out, names)
	}
	return out
}
