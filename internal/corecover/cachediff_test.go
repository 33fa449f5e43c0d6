// Cache-differential harness (the PR 7 headline test, sibling of the
// oracle differential harness): over the 200-instance seeded chain/star
// corpus, the cold path, the catalog path, and the warm path (a second
// identical query answered from the plan cache) must produce
// byte-identical Results — before and after interleaved
// AddViews/RemoveView invalidations.
package corecover

import (
	"fmt"
	"testing"

	"viewplan/internal/cq"
	"viewplan/internal/obs"
	"viewplan/internal/views"
	"viewplan/internal/workload"
)

// algorithms names both entry points so the harness runs each corpus
// instance through CoreCover and CoreCover*.
var algorithms = []struct {
	name string
	run  func(*cq.Query, *views.Set, Options) (*Result, error)
}{
	{"CoreCover", CoreCover},
	{"CoreCoverStar", CoreCoverStar},
}

func TestCacheDifferentialColdWarmCatalog(t *testing.T) {
	for n, inst := range diffCorpus(t) {
		cat, err := CompileViews(inst.Views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range algorithms {
			label := fmt.Sprintf("%s #%d %s", alg.name, n, inst.Query)
			cold, err := alg.run(inst.Query, inst.Views, Options{})
			if err != nil {
				t.Fatal(err)
			}

			// Catalog path, no cache.
			got, err := alg.run(inst.Query, nil, Options{Catalog: cat})
			if err != nil {
				t.Fatal(err)
			}
			requireResultsEqual(t, label+" cold vs catalog", cold, got)

			// Cache path: the first run misses and must equal cold; the
			// second identical query hits and must equal cold byte for
			// byte.
			cache := NewPlanCache(16)
			trMiss := obs.New()
			miss, err := alg.run(inst.Query, nil, Options{Catalog: cat, Cache: cache, Tracer: trMiss})
			if err != nil {
				t.Fatal(err)
			}
			if trMiss.Counter(obs.CtrPlanCacheMiss) != 1 || trMiss.Counter(obs.CtrPlanCacheHit) != 0 {
				t.Fatalf("%s: first cached run: misses=%d hits=%d, want 1/0",
					label, trMiss.Counter(obs.CtrPlanCacheMiss), trMiss.Counter(obs.CtrPlanCacheHit))
			}
			requireResultsEqual(t, label+" cold vs cache-miss", cold, miss)
			trHit := obs.New()
			warm, err := alg.run(inst.Query, nil, Options{Catalog: cat, Cache: cache, Tracer: trHit})
			if err != nil {
				t.Fatal(err)
			}
			if trHit.Counter(obs.CtrPlanCacheHit) != 1 {
				t.Fatalf("%s: repeat did not hit the cache", label)
			}
			requireResultsEqual(t, label+" cold vs warm", cold, warm)
		}

		// Every 10th instance: interleave view mutations. Adding a view
		// mints a new generation (the old entry must not serve), the
		// mutated catalog's results must match a cold run over the
		// mutated set, and removing the addition again must reproduce
		// the original instance's cold results — through the same cache.
		if n%10 != 0 {
			continue
		}
		extra := cq.MustParseQuery(fmt.Sprintf("zmut%d(X, Y) :- %s(X, Y)", n, inst.Views.Views[0].Def.Body[0].Pred))
		cache := NewPlanCache(16)
		tr0 := obs.New()
		if _, err := CoreCover(inst.Query, nil, Options{Catalog: cat, Cache: cache, Tracer: tr0}); err != nil {
			t.Fatal(err)
		}
		grown, err := cat.AddViews(extra)
		if err != nil {
			t.Fatal(err)
		}
		grownSet, err := inst.Views.Append(extra)
		if err != nil {
			t.Fatal(err)
		}
		coldGrown, err := CoreCover(inst.Query, grownSet, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr1 := obs.New()
		gotGrown, err := CoreCover(inst.Query, nil, Options{Catalog: grown, Cache: cache, Tracer: tr1})
		if err != nil {
			t.Fatal(err)
		}
		if tr1.Counter(obs.CtrPlanCacheHit) != 0 || tr1.Counter(obs.CtrPlanCacheMiss) != 1 {
			t.Fatalf("instance %d: AddViews did not invalidate: hits=%d misses=%d",
				n, tr1.Counter(obs.CtrPlanCacheHit), tr1.Counter(obs.CtrPlanCacheMiss))
		}
		requireResultsEqual(t, fmt.Sprintf("#%d cold-grown vs catalog-grown", n), coldGrown, gotGrown)

		shrunk, err := grown.RemoveView(extra.Name())
		if err != nil {
			t.Fatal(err)
		}
		cold, err := CoreCover(inst.Query, inst.Views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr2 := obs.New()
		gotShrunk, err := CoreCover(inst.Query, nil, Options{Catalog: shrunk, Cache: cache, Tracer: tr2})
		if err != nil {
			t.Fatal(err)
		}
		if tr2.Counter(obs.CtrPlanCacheHit) != 0 {
			t.Fatalf("instance %d: a stale generation served after RemoveView", n)
		}
		requireResultsEqual(t, fmt.Sprintf("#%d cold vs catalog-after-remove", n), cold, gotShrunk)

		// The original catalog's entry is still live under its own
		// generation: planning against cat again must hit.
		tr3 := obs.New()
		back, err := CoreCover(inst.Query, nil, Options{Catalog: cat, Cache: cache, Tracer: tr3})
		if err != nil {
			t.Fatal(err)
		}
		if tr3.Counter(obs.CtrPlanCacheHit) != 1 {
			t.Fatalf("instance %d: original generation's entry was lost", n)
		}
		requireResultsEqual(t, fmt.Sprintf("#%d cold vs original-generation hit", n), cold, back)
	}
}

// TestCacheDifferentialPlanQueryParity pins the same contract one layer
// up: a PlanRequest carrying Catalog+Cache must choose the same plan as
// the uncached request, warm or cold. (M1 only — M2/M3 need a
// materialized database, which the service-level tests cover.)
func TestCacheDifferentialPlanQueryParity(t *testing.T) {
	inst, err := workload.Generate(workload.Config{Shape: workload.Star, QuerySubgoals: 6, NumViews: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := CompileViews(inst.Views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(4)
	cold, err := CoreCover(inst.Query, inst.Views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := CoreCover(inst.Query, nil, Options{Catalog: cat, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, fmt.Sprintf("PlanQuery parity round %d", i), cold, got)
	}
}
