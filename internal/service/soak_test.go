// Service soak under the race detector: many client goroutines hammer
// one shared ViewCatalog and plan cache with a mix of repeated and
// fresh queries while a mutator keeps swapping catalogs underneath
// them. The registry's plan_cache_hits / misses / evictions must
// reconcile EXACTLY with the sum of the per-request snapshots — a
// dropped or double-counted tick under concurrency fails the test —
// and every response's reported cache outcome must match its own
// snapshot.
package service_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"viewplan"
	"viewplan/internal/obs"
	"viewplan/internal/service"
	"viewplan/internal/workload"
)

// soakQuery renders the i-th distinct star query over the e1..e12
// vocabulary of the soak's view world: the lexicographically i-th
// 4-subset of {1..12} (495 exist, far more than the soak issues, so
// distinct indexes give queries with distinct canonical keys).
func soakQuery(i int) string {
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		b := 1
		for j := 0; j < k; j++ {
			b = b * (n - j) / (j + 1)
		}
		return b
	}
	const n, k = 12, 4
	i %= binom(n, k)
	rels := make([]int, 0, k)
	for next, need := 1, k; need > 0; next++ {
		// Subsets starting with `next` number C(n-next, need-1).
		c := binom(n-next, need-1)
		if i < c {
			rels = append(rels, next)
			need--
		} else {
			i -= c
		}
	}
	var head, body strings.Builder
	head.WriteString("q(X0")
	for j, r := range rels {
		fmt.Fprintf(&head, ", X%d", r)
		if j > 0 {
			body.WriteString(", ")
		}
		fmt.Fprintf(&body, "e%d(X0, X%d)", r, r)
	}
	return head.String() + ") :- " + body.String()
}

func TestServiceSoakCountersReconcile(t *testing.T) {
	// A deliberately tight cache: fresh queries keep evicting, so the
	// eviction counter is exercised, not just hits and misses. Capacity 8
	// is below the cache's striping threshold, so this soaks the
	// single-stripe (exact global LRU) configuration.
	runCacheSoak(t, 8, 24)
}

func TestServiceSoakStripedCacheReconciles(t *testing.T) {
	// Capacity 64 stripes the cache into 8 independently locked
	// segments. The soak issues ~100 distinct keys, so by pigeonhole at
	// least one stripe overflows its share and evicts — the counters
	// must still reconcile exactly.
	runCacheSoak(t, 64, 24)
}

func runCacheSoak(t *testing.T, cacheSize, perWork int) {
	inst, err := workload.Generate(workload.Config{
		Shape:         workload.Star,
		QuerySubgoals: 6,
		NumViews:      40,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{Views: inst.Views, CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		hotSet  = 4 // queries 0..3 repeat; the rest are fresh per worker
	)
	var (
		mu    sync.Mutex
		stats []*viewplan.PlanningStats
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWork; i++ {
				var q string
				if i%2 == 0 {
					q = soakQuery(i % hotSet) // repeated: cache-hit pressure
				} else {
					q = soakQuery(hotSet + w*perWork + i) // fresh: miss + eviction pressure
				}
				resp, err := srv.Plan(service.PlanRequest{Query: q})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Stats == nil {
					t.Error("response without stats")
					return
				}
				hits := resp.Stats.Counters[obs.CtrPlanCacheHit.String()]
				if resp.CacheHit != (hits == 1) || hits > 1 {
					t.Errorf("response cache outcome %v disagrees with its snapshot (hits=%d)", resp.CacheHit, hits)
					return
				}
				misses := resp.Stats.Counters[obs.CtrPlanCacheMiss.String()]
				if hits+misses != 1 {
					t.Errorf("request was neither a hit nor a miss exactly once: hits=%d misses=%d", hits, misses)
					return
				}
				mu.Lock()
				stats = append(stats, resp.Stats)
				mu.Unlock()
			}
		}(w)
	}

	// The mutator: grow and shrink the view world concurrently with the
	// planning traffic. Every AddViews/RemoveView swaps in a fresh
	// generation, so in-flight requests keep their catalog and the cache
	// can never serve across the swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			name := fmt.Sprintf("zsoak%d", i)
			if _, err := srv.AddView(name + "(X, Y) :- e1(X, Y)"); err != nil {
				t.Error(err)
				return
			}
			if _, err := srv.RemoveView(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	total := int64(workers * perWork)
	reg := srv.Registry()
	if got := reg.Requests(); got != total {
		t.Fatalf("Requests = %d, want %d", got, total)
	}

	// Exact reconciliation: the registry merge must equal the sum of the
	// per-request snapshots for every counter, in both directions.
	want := map[string]int64{}
	for _, s := range stats {
		for name, v := range s.Counters {
			want[name] += v
		}
	}
	snap := reg.Snapshot()
	for name, v := range want {
		if v != 0 && snap.Counters[name] != v {
			t.Errorf("counter %s: registry has %d, per-request sum is %d", name, snap.Counters[name], v)
		}
	}
	for name, v := range snap.Counters {
		if want[name] != v {
			t.Errorf("counter %s: registry has %d, per-request sum is %d", name, v, want[name])
		}
	}

	// The soak must have exercised all three cache counters, and every
	// request must be exactly one hit or one miss (no bypass: the soak's
	// queries are all within the cache's key domain).
	hits := snap.Counters[obs.CtrPlanCacheHit.String()]
	misses := snap.Counters[obs.CtrPlanCacheMiss.String()]
	evicts := snap.Counters[obs.CtrPlanCacheEvict.String()]
	if hits+misses != total {
		t.Errorf("hits(%d) + misses(%d) = %d, want %d", hits, misses, hits+misses, total)
	}
	if hits == 0 || misses == 0 || evicts == 0 {
		t.Errorf("soak did not exercise the cache: hits=%d misses=%d evictions=%d", hits, misses, evicts)
	}
	if bypass := snap.Counters[obs.CtrPlanCacheBypass.String()]; bypass != 0 {
		t.Errorf("unexpected cache bypasses: %d", bypass)
	}

	// The latency histogram saw every request.
	if h, ok := snap.Histograms[obs.HistPlanLatency]; !ok || h.Count != total {
		t.Errorf("histogram %s count = %v, want %d", obs.HistPlanLatency, h.Count, total)
	}
}
