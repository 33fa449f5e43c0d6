// Command servebench is the QPS harness for the resident planning
// service: sustained concurrent traffic against one fixed star-workload
// ViewCatalog, measured in-process (Server.Plan, no HTTP in the
// measurement path) and reported as BENCH_service.json.
//
// Two phases run over the same query population:
//
//   - cold: every request is a distinct query, so every request pays the
//     full CoreCover pipeline (the plan cache only ever misses);
//   - warm: a small hot set, primed once, is replayed by every client,
//     so every request is a plan-cache hit (canonical labeling plus the
//     memoized Result — a shallow copy for identity replays, a rebased
//     private copy for alpha-renamed arrivals — with the service's
//     rendered-response memo skipping the repeat stringification).
//
// The harness fails (exit 1) unless the warm-path p50 AND p99 are at
// least -min-speedup times below the cold-path p50 — the resident
// catalog's reason to exist, gated.
//
// Usage:
//
//	servebench                          # 200 views, 2 clients/core, gate at 5x
//	servebench -clients 16 -cold 2000 -hot 128 -rounds 100
//	servebench -views 5000              # scale catalog
//	servebench -out BENCH_service.json -min-speedup 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewplan/internal/obs"
	"viewplan/internal/service"
	"viewplan/internal/workload"
)

func main() {
	var (
		numViews = flag.Int("views", 200, "views in the resident catalog")
		subgoals = flag.Int("subgoals", 8, "subgoals per benchmark query")
		clients  = flag.Int("clients", 0, "concurrent client goroutines (0 = 2 per core)")
		cold     = flag.Int("cold", 1024, "distinct queries in the cold sweep")
		hot      = flag.Int("hot", 64, "distinct queries in the warm hot set")
		rounds   = flag.Int("rounds", 64, "replays of the hot set per client in the warm sweep")
		cacheCap = flag.Int("cache", 4096, "plan cache capacity")
		out      = flag.String("out", "BENCH_service.json", "output report path")
		minSpeed = flag.Float64("min-speedup", 5, "fail unless cold p50 / warm p50 and cold p50 / warm p99 both reach this factor")
	)
	flag.Parse()
	if err := run(*numViews, *subgoals, *clients, *cold, *hot, *rounds, *cacheCap, *out, *minSpeed); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// phaseReport is one sweep's aggregate.
type phaseReport struct {
	Requests    int64   `json:"requests"`
	QPS         float64 `json:"qps"`
	MeanNanos   int64   `json:"mean_ns"`
	P50Nanos    int64   `json:"p50_ns"`
	P90Nanos    int64   `json:"p90_ns"`
	P99Nanos    int64   `json:"p99_ns"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
}

type report struct {
	Description string `json:"description"`
	Command     string `json:"command"`
	Config      struct {
		Views       int `json:"views"`
		Subgoals    int `json:"subgoals"`
		Clients     int `json:"clients"`
		ColdQueries int `json:"cold_queries"`
		HotQueries  int `json:"hot_queries"`
		Rounds      int `json:"rounds"`
		CacheCap    int `json:"cache_capacity"`
		Vocab       int `json:"vocabulary"`
		Cores       int `json:"cores"`
	} `json:"config"`
	Cold               phaseReport           `json:"cold"`
	Warm               phaseReport           `json:"warm"`
	SpeedupP50OverP50  float64               `json:"speedup_cold_p50_over_warm_p50"`
	SpeedupP50OverP99  float64               `json:"speedup_cold_p50_over_warm_p99"`
	MinSpeedupRequired float64               `json:"min_speedup_required"`
	Registry           *obs.RegistrySnapshot `json:"registry"`
}

func run(numViews, subgoals, clients, cold, hot, rounds, cacheCap int, out string, minSpeed float64) error {
	if clients <= 0 {
		// Two clients per core keeps the service saturated (there is
		// always a runnable request) without drowning per-request
		// latency in run-queue wait on small machines.
		clients = 2 * runtime.GOMAXPROCS(0)
	}
	// The catalog is the scale star world (the Fig. 6a shape): views over
	// the e1..eN vocabulary of an 8-subgoal star query, N growing with
	// the view count (ScaleVocab; 16 at the default 200 views, so the
	// default report is unchanged). The benchmark queries are distinct
	// star queries over k-subsets of that same vocabulary, so every
	// request exercises real view-tuple work against the resident views
	// while staying pairwise distinct under ExactCanonicalKey.
	inst, err := workload.ScaleCatalog(numViews, 42)
	if err != nil {
		return err
	}
	vocab := workload.ScaleVocab(numViews)
	queries := starQueries(vocab, subgoals, cold+hot)
	if len(queries) < cold+hot {
		return fmt.Errorf("only %d distinct %d-subgoal queries over %d relations; lower -cold/-hot", len(queries), subgoals, vocab)
	}
	srv, err := service.New(service.Config{Views: inst.Views, CacheSize: cacheCap})
	if err != nil {
		return err
	}

	var rep report
	rep.Description = fmt.Sprintf(
		"Resident planning service under sustained concurrent traffic: %d-view star catalog, %d clients. Cold sweep: %d distinct queries (every request replans). Warm sweep: %d-query hot set replayed %d rounds per client (every request is a plan-cache hit). Latency is in-process Server.Plan, no HTTP.",
		numViews, clients, cold, hot, rounds)
	rep.Command = "go run ./cmd/servebench"
	rep.Config.Views = numViews
	rep.Config.Subgoals = subgoals
	rep.Config.Clients = clients
	rep.Config.ColdQueries = cold
	rep.Config.HotQueries = hot
	rep.Config.Rounds = rounds
	rep.Config.CacheCap = cacheCap
	rep.Config.Vocab = vocab
	rep.Config.Cores = runtime.NumCPU()

	coldQueries := queries[:cold]
	hotQueries := queries[cold : cold+hot]

	// Cold sweep: clients drain a shared index of distinct queries.
	coldRep, err := sweep(srv, clients, func(next func() int) ([]string, bool) {
		i := next()
		if i >= len(coldQueries) {
			return nil, false
		}
		return coldQueries[i : i+1], true
	})
	if err != nil {
		return err
	}
	if coldRep.CacheHits != 0 {
		return fmt.Errorf("cold sweep saw %d cache hits; queries are not distinct", coldRep.CacheHits)
	}
	rep.Cold = coldRep

	// Prime the hot set, then replay it.
	for _, q := range hotQueries {
		if _, err := srv.Plan(service.PlanRequest{Query: q}); err != nil {
			return err
		}
	}
	warmRep, err := sweep(srv, clients, func(next func() int) ([]string, bool) {
		if next() >= clients*rounds {
			return nil, false
		}
		return hotQueries, true
	})
	if err != nil {
		return err
	}
	if warmRep.CacheMisses != 0 {
		return fmt.Errorf("warm sweep saw %d cache misses; the hot set fell out of the cache", warmRep.CacheMisses)
	}
	rep.Warm = warmRep

	rep.MinSpeedupRequired = minSpeed
	rep.SpeedupP50OverP50 = ratio(rep.Cold.P50Nanos, rep.Warm.P50Nanos)
	rep.SpeedupP50OverP99 = ratio(rep.Cold.P50Nanos, rep.Warm.P99Nanos)
	rep.Registry = srv.Registry().Snapshot()

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("cold: %d req, %.0f qps, p50 %s p99 %s\n", rep.Cold.Requests, rep.Cold.QPS,
		time.Duration(rep.Cold.P50Nanos), time.Duration(rep.Cold.P99Nanos))
	fmt.Printf("warm: %d req, %.0f qps, p50 %s p99 %s\n", rep.Warm.Requests, rep.Warm.QPS,
		time.Duration(rep.Warm.P50Nanos), time.Duration(rep.Warm.P99Nanos))
	fmt.Printf("speedup: cold p50 / warm p50 = %.1fx, cold p50 / warm p99 = %.1fx (gate %.1fx)\n",
		rep.SpeedupP50OverP50, rep.SpeedupP50OverP99, minSpeed)
	if rep.SpeedupP50OverP50 < minSpeed || rep.SpeedupP50OverP99 < minSpeed {
		return fmt.Errorf("warm path too slow: want both speedups >= %.1fx", minSpeed)
	}
	fmt.Println("wrote", out)
	return nil
}

// sweep drives one phase: clients goroutines repeatedly call take (which
// claims work off a shared atomic counter and returns the next batch of
// queries, or false when the phase is done) and plan every query in the
// batch, recording per-request latency.
func sweep(srv *service.Server, clients int, take func(next func() int) ([]string, bool)) (phaseReport, error) {
	var (
		hist         obs.Histogram
		hits, misses atomic.Int64
		counter      atomic.Int64
		wg           sync.WaitGroup
		errOnce      sync.Once
		firstErr     error
	)
	next := func() int { return int(counter.Add(1)) - 1 }
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				batch, ok := take(next)
				if !ok {
					return
				}
				for _, q := range batch {
					resp, err := srv.Plan(service.PlanRequest{Query: q})
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					hist.Observe(resp.LatencyNanos)
					if resp.CacheHit {
						hits.Add(1)
					} else {
						misses.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return phaseReport{}, firstErr
	}
	s := hist.Snapshot()
	rep := phaseReport{
		Requests:    s.Count,
		P50Nanos:    s.P50,
		P90Nanos:    s.P90,
		P99Nanos:    s.P99,
		CacheHits:   hits.Load(),
		CacheMisses: misses.Load(),
	}
	if s.Count > 0 {
		rep.MeanNanos = s.Sum / s.Count
		rep.QPS = float64(s.Count) / elapsed.Seconds()
	}
	return rep, nil
}

// ratio returns a/b, treating a degenerate denominator as a huge
// speedup (sub-nanosecond warm latency cannot fail the gate).
func ratio(a, b int64) float64 {
	if b <= 0 {
		b = 1
	}
	return float64(a) / float64(b)
}

// starQueries enumerates up to count distinct star queries
// q(X0, Xr1, ..., Xrk) :- e{r1}(X0, Xr1), ..., e{rk}(X0, Xrk) over
// k-subsets of relations e1..en in lexicographic order. Distinct subsets
// use distinct predicate sets, so the queries are pairwise distinct
// under ExactCanonicalKey.
func starQueries(n, k, count int) []string {
	if k < 1 || k > n {
		return nil
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i + 1
	}
	var out []string
	for len(out) < count {
		out = append(out, starQuery(idx))
		i := k - 1
		for i >= 0 && idx[i] == n-k+1+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}

// starQuery renders one subset as Datalog.
func starQuery(rels []int) string {
	var head, body strings.Builder
	head.WriteString("q(X0")
	for i, r := range rels {
		head.WriteString(", X")
		head.WriteString(strconv.Itoa(r))
		if i > 0 {
			body.WriteString(", ")
		}
		body.WriteString("e")
		body.WriteString(strconv.Itoa(r))
		body.WriteString("(X0, X")
		body.WriteString(strconv.Itoa(r))
		body.WriteString(")")
	}
	return head.String() + ") :- " + body.String()
}
