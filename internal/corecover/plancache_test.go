// Eviction and invalidation contract of the plan cache: evicted keys
// replan correctly, stale generations never serve, capacity 0 and 1
// behave, alpha-renamed queries hit while constant-differing queries
// miss — plus a fuzz target feeding ExactCanonicalKey near-collisions.
package corecover

import (
	"fmt"
	"strings"
	"testing"

	"viewplan/internal/cq"
	"viewplan/internal/obs"
	"viewplan/internal/views"
)

// cacheFixture is a small star world every cache unit test shares.
func cacheFixture(t testing.TB) (*views.Set, *Catalog) {
	t.Helper()
	vs, err := views.ParseSet(`
		v1(X, Y) :- e0(X, Y).
		v2(X, Y) :- e1(X, Y).
		v3(X, Y, Z) :- e0(X, Y), e1(X, Z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := CompileViews(vs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return vs, cat
}

// planCounted runs CoreCover against cat+cache and returns the result
// with the run's hit/miss/bypass counters.
func planCounted(t testing.TB, q *cq.Query, cat *Catalog, cache *PlanCache) (*Result, hitMiss) {
	t.Helper()
	tr := obs.New()
	r, err := CoreCover(q, nil, Options{Catalog: cat, Cache: cache, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	return r, hitMiss{
		hits:   tr.Counter(obs.CtrPlanCacheHit),
		misses: tr.Counter(obs.CtrPlanCacheMiss),
		bypass: tr.Counter(obs.CtrPlanCacheBypass),
	}
}

type hitMiss struct{ hits, misses, bypass int64 }

func TestPlanCacheCapacityZeroStoresNothing(t *testing.T) {
	_, cat := cacheFixture(t)
	cache := NewPlanCache(0)
	q := cq.MustParseQuery("q(X, Y) :- e0(X, Y)")
	for i := 0; i < 3; i++ {
		_, hm := planCounted(t, q, cat, cache)
		if hm.hits != 0 || hm.misses != 1 {
			t.Fatalf("round %d: hits=%d misses=%d, want 0/1 (capacity 0 stores nothing)", i, hm.hits, hm.misses)
		}
	}
	if cache.Len() != 0 {
		t.Fatalf("capacity-0 cache holds %d entries", cache.Len())
	}
}

func TestPlanCacheCapacityOneEvictsAndReplans(t *testing.T) {
	vs, cat := cacheFixture(t)
	cache := NewPlanCache(1)
	qa := cq.MustParseQuery("qa(X, Y) :- e0(X, Y)")
	qb := cq.MustParseQuery("qb(X, Z) :- e0(X, Y), e1(X, Z)")
	coldA, err := CoreCover(qa, vs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if _, hm := planCounted(t, qa, cat, cache); hm.misses != 1 {
		t.Fatalf("first qa: %+v, want a miss", hm)
	}
	if _, hm := planCounted(t, qa, cat, cache); hm.hits != 1 {
		t.Fatalf("second qa: %+v, want a hit", hm)
	}
	// qb displaces qa (capacity 1).
	trB := obs.New()
	if _, err := CoreCover(qb, nil, Options{Catalog: cat, Cache: cache, Tracer: trB}); err != nil {
		t.Fatal(err)
	}
	if trB.Counter(obs.CtrPlanCacheEvict) != 1 {
		t.Fatalf("qb insert evicted %d entries, want 1", trB.Counter(obs.CtrPlanCacheEvict))
	}
	if cache.Len() != 1 {
		t.Fatalf("capacity-1 cache holds %d entries", cache.Len())
	}
	// The evicted key replans correctly: a miss, and byte-identical to
	// the cold run.
	got, hm := planCounted(t, qa, cat, cache)
	if hm.hits != 0 || hm.misses != 1 {
		t.Fatalf("evicted qa: %+v, want a clean miss", hm)
	}
	requireResultsEqual(t, "evicted qa replanned", coldA, got)
}

func TestPlanCacheLRUKeepsHotEntry(t *testing.T) {
	_, cat := cacheFixture(t)
	cache := NewPlanCache(2)
	qa := cq.MustParseQuery("qa(X, Y) :- e0(X, Y)")
	qb := cq.MustParseQuery("qb(X, Y) :- e1(X, Y)")
	qc := cq.MustParseQuery("qc(X, Z) :- e0(X, Y), e1(X, Z)")
	planCounted(t, qa, cat, cache) // miss, cached
	planCounted(t, qb, cat, cache) // miss, cached
	planCounted(t, qa, cat, cache) // hit: qa is now most recent
	planCounted(t, qc, cat, cache) // miss: evicts qb, the LRU entry
	if _, hm := planCounted(t, qa, cat, cache); hm.hits != 1 {
		t.Fatalf("qa (hot) was evicted: %+v", hm)
	}
	if _, hm := planCounted(t, qb, cat, cache); hm.misses != 1 {
		t.Fatalf("qb (cold) was retained: %+v", hm)
	}
}

func TestPlanCacheStaleGenerationNeverServes(t *testing.T) {
	_, cat := cacheFixture(t)
	cache := NewPlanCache(8)
	// q rewrites using v1 (the only view covering e0 alone).
	q := cq.MustParseQuery("q(X, Y) :- e0(X, Y)")
	r0, hm := planCounted(t, q, cat, cache)
	if hm.misses != 1 || len(r0.Rewritings) == 0 {
		t.Fatalf("setup: %+v rewritings=%d", hm, len(r0.Rewritings))
	}
	shrunk, err := cat.RemoveView("v1")
	if err != nil {
		t.Fatal(err)
	}
	r1, hm := planCounted(t, q, shrunk, cache)
	if hm.hits != 0 {
		t.Fatal("a cached plan from before RemoveView served afterwards")
	}
	// The stale plan used v1; the fresh plan cannot.
	for _, rw := range r1.Rewritings {
		for _, a := range rw.Body {
			if a.Pred == "v1" {
				t.Fatalf("post-removal rewriting still uses v1: %s", rw)
			}
		}
	}
}

func TestPlanCacheAlphaRenamedHitsConstantsMiss(t *testing.T) {
	vs, cat := cacheFixture(t)
	cache := NewPlanCache(8)
	q := cq.MustParseQuery("q(A, B, C) :- e0(A, B), e1(A, C)")
	if _, hm := planCounted(t, q, cat, cache); hm.misses != 1 {
		t.Fatal("setup miss expected")
	}

	// Alpha-renamed (and body-reordered) spellings must hit, and the
	// served plans must be correct for the arrival's variable names.
	for _, src := range []string{
		"q(U, V, W) :- e0(U, V), e1(U, W)",
		"q(C, A, B) :- e1(C, B), e0(C, A)",
	} {
		ren := cq.MustParseQuery(src)
		got, hm := planCounted(t, ren, cat, cache)
		if hm.hits != 1 {
			t.Fatalf("alpha-renamed %q: %+v, want a hit", src, hm)
		}
		if got.Query.String() != ren.String() {
			t.Fatalf("hit did not return the arrival verbatim: %s", got.Query)
		}
		if len(got.Rewritings) == 0 {
			t.Fatalf("alpha-renamed %q: no rewritings served", src)
		}
		for _, rw := range got.Rewritings {
			if !vs.IsEquivalentRewriting(rw, ren) {
				t.Fatalf("served plan %s is not an equivalent rewriting of %s", rw, ren)
			}
		}
	}

	// A constant where the cached query has a variable must miss.
	con := cq.MustParseQuery("q(A, B) :- e0(A, B), e1(A, c7)")
	if _, hm := planCounted(t, con, cat, cache); hm.hits != 0 {
		t.Fatal("constant-differing query hit a variable entry")
	}
	// And two spellings differing only in the constant are distinct.
	con2 := cq.MustParseQuery("q(A, B) :- e0(A, B), e1(A, c8)")
	if _, hm := planCounted(t, con2, cat, cache); hm.hits != 0 {
		t.Fatal("queries with different constants shared an entry")
	}
}

func TestPlanCacheBypasses(t *testing.T) {
	_, cat := cacheFixture(t)
	cache := NewPlanCache(8)

	// Reserved "_"-prefixed variables bypass (capture hazard against
	// cached _E/_X internals).
	qr := cq.MustParseQuery("q(X, _E0) :- e0(X, _E0)")
	for i := 0; i < 2; i++ {
		_, hm := planCounted(t, qr, cat, cache)
		if hm.bypass != 1 || hm.hits != 0 || hm.misses != 0 {
			t.Fatalf("reserved-var round %d: %+v, want pure bypass", i, hm)
		}
	}

	// Oversized bodies (beyond the exact canonical labeling cap) bypass.
	var b strings.Builder
	b.WriteString("q(X0) :- ")
	for i := 0; i < 17; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("e0(X")
		b.WriteString(string(rune('0' + i%10)))
		b.WriteString(", X0)")
	}
	big := cq.MustParseQuery(b.String())
	if _, hm := planCounted(t, big, cat, cache); hm.bypass != 1 {
		t.Fatal("oversized query did not bypass")
	}
	if cache.Len() != 0 {
		t.Fatalf("bypassed queries were cached: %d entries", cache.Len())
	}
}

func TestPlanCacheWithoutCatalogIsIgnored(t *testing.T) {
	vs, _ := cacheFixture(t)
	cache := NewPlanCache(8)
	q := cq.MustParseQuery("q(X, Y) :- e0(X, Y)")
	tr := obs.New()
	if _, err := CoreCover(q, vs, Options{Cache: cache, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if tr.Counter(obs.CtrPlanCacheMiss) != 0 || tr.Counter(obs.CtrPlanCacheBypass) != 0 || cache.Len() != 0 {
		t.Fatal("a cache without a catalog must be inert (no generation to key by)")
	}
}

// FuzzPlanCacheAlphaRenaming feeds ExactCanonicalKey near-collisions:
// from a fuzzed bare query shape it derives (a) an alpha-renamed twin,
// which must hit and serve a byte-identical-up-to-renaming plan, and
// (b) a constant-differing twin, which must miss.
func FuzzPlanCacheAlphaRenaming(f *testing.F) {
	f.Add("q(A, B) :- e0(A, B)")
	f.Add("q(A, B, C) :- e0(A, B), e1(A, C)")
	f.Add("q(A) :- e0(A, A), e1(A, A)")
	f.Add("q(A, B) :- e0(A, B), e0(B, A)")
	vs, err := views.ParseSet(`
		v1(X, Y) :- e0(X, Y).
		v2(X, Y) :- e1(X, Y).
		v3(X, Y, Z) :- e0(X, Y), e1(X, Z).
	`)
	if err != nil {
		f.Fatal(err)
	}
	cat, err := CompileViews(vs, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := cq.ParseQuery(src)
		if err != nil || q.Validate() != nil || q.HasComparisons() {
			t.Skip()
		}
		if _, _, ok := cq.CanonicalLabeling(q); !ok || usesReservedVars(q) {
			t.Skip()
		}
		cache := NewPlanCache(16)
		cold, err := CoreCover(q, nil, Options{Catalog: cat, Cache: cache})
		if err != nil {
			t.Skip() // e.g. too many subgoals after minimization
		}

		// Rename every variable Vi -> R<i> (fresh names, never "_").
		ren := cq.NewSubst()
		for i, v := range q.VarOrder() {
			ren[v] = cq.Var("Ren" + string(rune('A'+i%26)) + string(rune('0'+i/26)))
		}
		twin := ren.Query(q)
		tr := obs.New()
		got, err := CoreCover(twin, nil, Options{Catalog: cat, Cache: cache, Tracer: tr})
		if err != nil {
			t.Fatalf("renamed twin errored: %v", err)
		}
		if tr.Counter(obs.CtrPlanCacheHit) != 1 {
			t.Fatalf("alpha-renamed twin missed: %s vs %s", q, twin)
		}
		if len(got.Rewritings) != len(cold.Rewritings) {
			t.Fatalf("twin served %d rewritings, cold had %d", len(got.Rewritings), len(cold.Rewritings))
		}
		for _, rw := range got.Rewritings {
			if !vs.IsEquivalentRewriting(rw, twin) {
				t.Fatalf("served plan %s is not an equivalent rewriting of %s", rw, twin)
			}
		}

		// Replace the first body variable occurrence with a constant:
		// the key must differ (a near-collision, same shape).
		mut := q.Clone()
		done := false
		for i := range mut.Body {
			for j, term := range mut.Body[i].Args {
				if _, isVar := term.(cq.Var); isVar {
					mut.Body[i].Args[j] = cq.Const("kfuzz")
					done = true
					break
				}
			}
			if done {
				break
			}
		}
		if !done || mut.Validate() != nil {
			return
		}
		trM := obs.New()
		if _, err := CoreCover(mut, nil, Options{Catalog: cat, Cache: cache, Tracer: trM}); err != nil {
			return // constant may make it unsafe/unrewritable; only the hit matters
		}
		if trM.Counter(obs.CtrPlanCacheHit) != 0 {
			t.Fatalf("constant-differing twin hit the variable entry: %s vs %s", q, mut)
		}
	})
}

// TestPlanCacheStripedCapacityAndEvictions pins the striped
// configuration's exact accounting: capacity >= planCacheStripeMin
// stripes the cache, the capacity bound still holds, and — since a
// single-threaded run stores every missed key exactly once — the evict
// ticks must equal stored keys minus resident entries, with no slack.
func TestPlanCacheStripedCapacityAndEvictions(t *testing.T) {
	_, cat := cacheFixture(t)
	cache := NewPlanCache(planCacheStripeMin)
	if len(cache.stripes) != planCacheStripes {
		t.Fatalf("capacity %d built %d stripes, want %d",
			planCacheStripeMin, len(cache.stripes), planCacheStripes)
	}
	if cache.Capacity() != planCacheStripeMin {
		t.Fatalf("Capacity = %d, want %d", cache.Capacity(), planCacheStripeMin)
	}
	perStripe := 0
	for i := range cache.stripes {
		perStripe += cache.stripes[i].cap
	}
	if perStripe != planCacheStripeMin {
		t.Fatalf("stripe capacities sum to %d, want %d", perStripe, planCacheStripeMin)
	}

	const distinct = 150 // > capacity, so some stripe must evict
	var evicts int64
	for i := 0; i < distinct; i++ {
		q := cq.MustParseQuery("q(A) :- e0(A, k" + itoa(i) + ")")
		tr := obs.New()
		if _, err := CoreCover(q, nil, Options{Catalog: cat, Cache: cache, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		if tr.Counter(obs.CtrPlanCacheMiss) != 1 {
			t.Fatalf("query %d was not a clean miss", i)
		}
		evicts += tr.Counter(obs.CtrPlanCacheEvict)
	}
	if cache.Len() > planCacheStripeMin {
		t.Fatalf("cache holds %d entries, capacity %d", cache.Len(), planCacheStripeMin)
	}
	if evicts == 0 {
		t.Fatal("150 distinct keys over capacity 64 never evicted")
	}
	if want := int64(distinct - cache.Len()); evicts != want {
		t.Fatalf("evictions do not reconcile: %d ticks, stored %d - resident %d = %d",
			evicts, distinct, cache.Len(), want)
	}

	// Below the threshold the cache keeps one stripe (exact global LRU).
	if small := NewPlanCache(planCacheStripeMin - 1); len(small.stripes) != 1 {
		t.Fatalf("capacity %d built %d stripes, want 1", planCacheStripeMin-1, len(small.stripes))
	}
}

// An entry shares nothing its callers can edit: after the insert, edits
// to the Result the missing run returned and to a Result a renamed hit
// served leave a later hit equal to the cold Result, term for term.
func TestPlanCacheEntryIsPrivate(t *testing.T) {
	_, cat := cacheFixture(t)
	q := cq.MustParseQuery("q(A, B, C) :- e0(A, B), e1(A, C)")
	cold, err := CoreCover(q, nil, Options{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	want := resultTerms(cold)
	cache := NewPlanCache(8)
	miss, hm := planCounted(t, q, cat, cache)
	if hm.misses != 1 {
		t.Fatalf("first run: %+v, want a miss", hm)
	}
	scribble(miss)
	hit, hm := planCounted(t, cq.MustParseQuery("q(U, V, W) :- e0(U, V), e1(U, W)"), cat, cache)
	if hm.hits != 1 {
		t.Fatalf("renamed run: %+v, want a hit", hm)
	}
	scribble(hit)
	got, hm := planCounted(t, q, cat, cache)
	if hm.hits != 1 {
		t.Fatalf("repeat: %+v, want a hit", hm)
	}
	if g := resultTerms(got); g != want {
		t.Fatalf("hit after the callers' edits:\n%s\ncold:\n%s", g, want)
	}
}

// resultTerms renders every renameable part of r.
func resultTerms(r *Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, r.MinimalQuery)
	for _, tu := range r.Tuples {
		fmt.Fprintln(&b, tu.Atom)
	}
	for _, tc := range r.Classes {
		fmt.Fprintln(&b, tc.Core.Tuple.Atom, tc.Core.Covered, tc.Core.Mapping, tc.Core.Expansion, tc.Members)
	}
	fmt.Fprintln(&b, r.Rewritings, r.Covers)
	return b.String()
}

// scribble overwrites every renameable part of r in place.
func scribble(r *Result) {
	atom := func(a cq.Atom) {
		for i := range a.Args {
			a.Args[i] = cq.Const("zz")
		}
	}
	query := func(q *cq.Query) {
		atom(q.Head)
		for _, a := range q.Body {
			atom(a)
		}
	}
	query(r.MinimalQuery)
	for _, tu := range r.Tuples {
		atom(tu.Atom)
	}
	for _, tc := range r.Classes {
		atom(tc.Core.Tuple.Atom)
		for v := range tc.Core.Mapping {
			tc.Core.Mapping[v] = cq.Const("zz")
		}
		for _, a := range tc.Core.Expansion {
			atom(a)
		}
		for _, m := range tc.Members {
			atom(m.Atom)
		}
	}
	for _, rw := range r.Rewritings {
		query(rw)
	}
	for _, cov := range r.Covers {
		for i := range cov {
			cov[i] = -1
		}
	}
}
