// Package service is the resident planning server: one compiled
// ViewCatalog shared by every request, a concurrent plan cache in front
// of the rewriting generator, and a process-lifetime telemetry registry
// — the long-lived deployment shape the catalog and cache were built
// for. The HTTP layer is a thin JSON codec over the in-process methods;
// benchmarks call Plan directly so transport cost never pollutes
// planner measurements.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"viewplan"
	"viewplan/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Views is the initial view set compiled into the resident catalog.
	Views *viewplan.ViewSet
	// CacheSize bounds the plan cache (entries; <= 0 disables caching).
	CacheSize int
}

// Server is a resident planner. One compiled catalog is shared by all
// in-flight requests through an atomic pointer; view mutations
// copy-on-write a successor catalog under a mutation mutex and swap the
// pointer, so readers never block and never observe a half-built view
// world. The plan cache is shared across generations — its keys embed
// the catalog generation, so a swap invalidates without purging.
type Server struct {
	reg   *obs.Registry
	cache *viewplan.PlanCache

	// mu serializes AddView/RemoveView so concurrent mutations chain
	// (each starts from the other's result) instead of racing the swap
	// and losing one of the updates.
	mu  sync.Mutex
	cat atomic.Pointer[viewplan.ViewCatalog]

	// rendered memoizes the codec work of plan-cache hits: the parsed
	// query and the JSON-facing strings. Parsing the request and
	// rendering ~100 rewritings dominate a warm request's CPU once the
	// planner itself is a cache hit, and both are pure functions of the
	// key: identical request text, mode, and catalog generation give a
	// byte-identical Result (the cache-differential guarantee), hence
	// identical strings — even if the plan cache has since evicted the
	// entry and the planner recomputes from scratch. Only hits populate
	// it — cold sweeps of distinct queries never displace the hot set —
	// and a view mutation swaps in an empty map (the generation in the
	// key already makes old entries unreachable; the swap just frees
	// them). renderedN crudely bounds the map: past the cap new answers
	// are served but not stored.
	rendered  atomic.Pointer[sync.Map]
	renderedN atomic.Int64
	renderCap int64
}

// renderKey identifies one deterministic planning answer.
type renderKey struct {
	query string
	star  bool
	gen   uint64
}

// rendering is the memoized form of one answer: the parsed query
// (read-only; the planner never mutates its input, and hit results
// clone it) and the string rewritings. The slice is shared by every
// response served from the memo; responses are read-only codec
// material.
type rendering struct {
	q          *viewplan.Query
	query      string
	rewritings []string
}

// New compiles the initial catalog and returns a ready server.
func New(cfg Config) (*Server, error) {
	cat, err := viewplan.CompileViews(cfg.Views, viewplan.Options{})
	if err != nil {
		return nil, err
	}
	s := &Server{
		reg:       viewplan.NewRegistry(),
		cache:     viewplan.NewPlanCache(cfg.CacheSize),
		renderCap: 4 * int64(cfg.CacheSize),
	}
	s.cat.Store(cat)
	s.rendered.Store(&sync.Map{})
	return s, nil
}

// Registry exposes the server's telemetry registry (the /metrics
// handler serves its snapshot).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Catalog returns the current resident catalog. The returned catalog is
// immutable; a concurrent mutation swaps in a successor but never
// changes this one.
func (s *Server) Catalog() *viewplan.ViewCatalog { return s.cat.Load() }

// PlanResponse is one planning answer, JSON-shaped for the HTTP layer
// and returned as-is by the in-process Plan.
type PlanResponse struct {
	// Query echoes the parsed query.
	Query string `json:"query"`
	// Rewritings are the generated rewritings in planner order (the
	// GMRs, or the CoreCover* space when Star was set). Empty means no
	// equivalent rewriting exists over the resident views.
	Rewritings []string `json:"rewritings"`
	// Generation is the catalog generation the request planned against.
	Generation uint64 `json:"generation"`
	// CacheHit reports whether the answer came from the plan cache;
	// CacheBypass reports a query outside the cache's key domain
	// (comparisons, reserved "_" variables, or an oversized body).
	CacheHit    bool `json:"cache_hit"`
	CacheBypass bool `json:"cache_bypass"`
	// LatencyNanos is the end-to-end in-process planning latency.
	LatencyNanos int64 `json:"latency_ns"`
	// Stats is the run's observability snapshot.
	Stats *viewplan.PlanningStats `json:"stats,omitempty"`
}

// PlanRequest is the /plan request body.
type PlanRequest struct {
	// Query is the conjunctive query in Datalog syntax.
	Query string `json:"query"`
	// Star selects the CoreCover* search space (all minimal rewritings)
	// instead of the GMRs.
	Star bool `json:"star"`
}

// Plan answers one planning request against the resident catalog,
// through the shared plan cache, and folds the run into the registry.
// Safe for unbounded concurrent use.
func (s *Server) Plan(req PlanRequest) (*PlanResponse, error) {
	cat := s.cat.Load()
	key := renderKey{query: req.Query, star: req.Star, gen: cat.Generation()}
	memo := s.rendered.Load()
	var memoized *rendering
	if v, ok := memo.Load(key); ok {
		memoized = v.(*rendering)
	}
	var q *viewplan.Query
	if memoized != nil {
		q = memoized.q
	} else {
		var err error
		q, err = viewplan.ParseQuery(req.Query)
		if err != nil {
			return nil, err
		}
	}
	tr := viewplan.NewTracer()
	opts := viewplan.Options{
		Tracer:  tr,
		Catalog: cat,
		Cache:   s.cache,
	}
	start := time.Now() //viewplan:nondet-ok LatencyNanos is telemetry, not a planning output; the Result itself stays deterministic
	var res *viewplan.Result
	var err error
	if req.Star {
		res, err = viewplan.FindMinimalRewritingsWith(q, nil, opts)
	} else {
		res, err = viewplan.FindGMRsWith(q, nil, opts)
	}
	latency := time.Since(start) //viewplan:nondet-ok telemetry, same as above
	if err != nil {
		return nil, err
	}
	stats := tr.Snapshot()
	s.reg.RecordPlan(stats, int64(len(res.Rewritings)))
	resp := &PlanResponse{
		Generation:   cat.Generation(),
		CacheHit:     tr.Counter(obs.CtrPlanCacheHit) > 0,
		CacheBypass:  tr.Counter(obs.CtrPlanCacheBypass) > 0,
		LatencyNanos: int64(latency),
		Stats:        stats,
	}
	if memoized == nil {
		memoized = render(q, res)
		if resp.CacheHit && s.renderedN.Add(1) <= s.renderCap {
			memo.Store(key, memoized)
		}
	}
	resp.Query, resp.Rewritings = memoized.query, memoized.rewritings
	return resp, nil
}

// render stringifies one answer.
func render(q *viewplan.Query, res *viewplan.Result) *rendering {
	r := &rendering{q: q, query: q.String(), rewritings: make([]string, len(res.Rewritings))}
	for i, p := range res.Rewritings {
		r.rewritings[i] = p.String()
	}
	return r
}

// ViewsResponse describes the resident view world after a query or
// mutation.
type ViewsResponse struct {
	Generation uint64   `json:"generation"`
	Views      []string `json:"views"`
}

// viewsResponse snapshots one catalog.
func viewsResponse(cat *viewplan.ViewCatalog) *ViewsResponse {
	return &ViewsResponse{Generation: cat.Generation(), Views: cat.Names()}
}

// AddView parses one view definition and installs a successor catalog
// containing it. The swap is copy-on-write: in-flight requests keep
// planning against the catalog they loaded; later requests see the new
// generation and the cache serves them nothing stale.
func (s *Server) AddView(def string) (*ViewsResponse, error) {
	q, err := viewplan.ParseQuery(def)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.cat.Load().AddViews(q)
	if err != nil {
		return nil, err
	}
	s.cat.Store(next)
	s.rendered.Store(&sync.Map{})
	s.renderedN.Store(0)
	return viewsResponse(next), nil
}

// RemoveView installs a successor catalog without the named view.
func (s *Server) RemoveView(name string) (*ViewsResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.cat.Load().RemoveView(name)
	if err != nil {
		return nil, err
	}
	s.cat.Store(next)
	s.rendered.Store(&sync.Map{})
	s.renderedN.Store(0)
	return viewsResponse(next), nil
}

// Handler returns the service's HTTP mux:
//
//	POST /plan          {"query": "...", "star": bool} -> PlanResponse
//	POST /views/add     {"view": "v(X, Y) :- e(X, Y)"} -> ViewsResponse
//	POST /views/remove  {"name": "v"}                  -> ViewsResponse
//	GET  /views                                        -> ViewsResponse
//	GET  /metrics                                      -> registry snapshot JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /plan", func(w http.ResponseWriter, r *http.Request) {
		var req PlanRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := s.Plan(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /views/add", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			View string `json:"view"`
		}
		if !decode(w, r, &req) {
			return
		}
		resp, err := s.AddView(req.View)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /views/remove", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Name string `json:"name"`
		}
		if !decode(w, r, &req) {
			return
		}
		resp, err := s.RemoveView(req.Name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /views", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, viewsResponse(s.cat.Load()))
	})
	mux.Handle("GET /metrics", viewplan.MetricsHandler(s.reg))
	return mux
}

// decode parses a JSON request body, writing a 400 on failure.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON serializes one response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
