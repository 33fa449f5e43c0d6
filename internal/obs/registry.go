// Process-lifetime telemetry: a Registry aggregates counters, phase
// times, and latency/cardinality histograms across many planning runs
// and goroutines, the layer ROADMAP's long-lived planning service
// plugs into. Per-run Tracers stay the unit of attribution; a Registry
// folds their snapshots together and survives them.
package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known histogram names. Instrumented code may use any string;
// sharing these keeps snapshots, the debug handler, and tools
// consistent.
const (
	// HistPlanLatency is the end-to-end PlanQuery latency in
	// nanoseconds (the observed planning time of each run's snapshot).
	HistPlanLatency = "plan_latency_ns"
	// HistCoreCoverLatency is the rewriting-generation (CoreCover)
	// latency in nanoseconds, recorded by the experiments sweeps.
	HistCoreCoverLatency = "corecover_latency_ns"
	// HistRewritingsConsidered is the per-request count of candidate
	// rewritings the planner examined.
	HistRewritingsConsidered = "rewritings_considered"
	// HistHomBacktracks is the per-search backtrack count of the
	// containment homomorphism kernel (process-wide; see Process).
	HistHomBacktracks = "hom_backtracks_per_search"
	// HistJoinRows is the output cardinality of each engine join step
	// (process-wide; see Process).
	HistJoinRows = "join_rows_per_step"
	// HistPeakResident is the peak number of execution-owned resident
	// rows per drain: the operator-held rows (projection dedup sets)
	// plus the result (process-wide; see Process).
	HistPeakResident = "peak_resident_rows"
	// HistStreamedRows is the per-operator emission count of each
	// streaming join drained by the iterator execution path
	// (process-wide; see Process).
	HistStreamedRows = "streamed_rows_per_join"
)

// counterIndex maps snapshot counter names back to Counter slots, for
// folding Snapshot.Counters into a Registry's CounterSet.
var counterIndex = func() map[string]Counter {
	m := make(map[string]Counter, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		m[counterNames[c]] = c
	}
	return m
}()

// phaseAgg accumulates one phase's flattened totals. Fields are atomic
// so concurrent Absorb calls only need the registry's read lock.
type phaseAgg struct {
	count atomic.Int64
	total atomic.Int64
	self  atomic.Int64
}

// Registry aggregates observability data across the process lifetime:
// work counters, flattened per-phase durations (self and total time
// kept separately, so recursing phases don't double-count), and named
// histograms. All methods are safe for concurrent use and nil-safe.
// The maps are read-mostly: after the first requests have populated
// the phase and histogram names, absorption takes only atomic adds
// under a read lock.
type Registry struct {
	created  time.Time
	requests atomic.Int64
	counters CounterSet

	mu     sync.RWMutex
	phases map[string]*phaseAgg
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		created: time.Now(),
		phases:  make(map[string]*phaseAgg),
		hists:   make(map[string]*Histogram),
	}
}

// Process is the process-lifetime registry: layers too deep to thread a
// per-run tracer or registry through (the containment homomorphism
// kernel, the engine join kernel) record their cardinality histograms
// here, and obs.Handler serves it by default. Like Global, attribution
// is process-wide; per-run attribution stays with tracers.
var Process = NewRegistry()

// Counters copies out the registry's aggregated counter values.
func (r *Registry) Counters() CounterValues {
	if r == nil {
		return CounterValues{}
	}
	return r.counters.Values()
}

// Add increments an aggregated counter directly (most counters arrive
// via Absorb; Add serves instrumentation with no per-run tracer).
func (r *Registry) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters.Add(c, n)
}

// Requests returns how many planning requests the registry has
// recorded (RecordPlan calls).
func (r *Registry) Requests() int64 {
	if r == nil {
		return 0
	}
	return r.requests.Load()
}

// Histogram returns the named histogram, creating it on first use.
// The returned pointer is stable for the registry's lifetime, so hot
// paths should look it up once and cache it. Nil-safe (returns nil,
// and a nil *Histogram ignores observations).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// phase returns the named phase aggregate, creating it on first use.
func (r *Registry) phase(name string) *phaseAgg {
	r.mu.RLock()
	p := r.phases[name]
	r.mu.RUnlock()
	if p != nil {
		return p
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p = r.phases[name]; p == nil {
		p = &phaseAgg{}
		r.phases[name] = p
	}
	return p
}

// Absorb folds one run's snapshot into the registry: counters add up
// and the phase tree is flattened by name, accumulating each node's
// total and self time separately. Nil-safe on both sides.
func (r *Registry) Absorb(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	for name, v := range s.Counters { //viewplan:nondet-ok atomic adds to disjoint counter slots commute, so iteration order cannot reach the totals
		if c, ok := counterIndex[name]; ok {
			r.counters.Add(c, v)
		}
	}
	var walk func(ps []PhaseStats)
	walk = func(ps []PhaseStats) {
		for i := range ps {
			p := r.phase(ps[i].Phase)
			p.count.Add(ps[i].Count)
			p.total.Add(ps[i].Nanos)
			p.self.Add(ps[i].SelfNanos)
			walk(ps[i].Children)
		}
	}
	walk(s.Phases)
}

// RecordLatency records a duration into the named histogram.
func (r *Registry) RecordLatency(name string, d time.Duration) {
	r.Histogram(name).ObserveDuration(d)
}

// RecordPlan records one completed planning request: the request
// count, the run's counters and phase times, the end-to-end latency
// (the snapshot's total observed planning time) into HistPlanLatency,
// and the candidate-rewriting cardinality into
// HistRewritingsConsidered. s may be nil (an untraced request counts
// toward Requests only).
func (r *Registry) RecordPlan(s *Snapshot, considered int64) {
	if r == nil {
		return
	}
	r.requests.Add(1)
	if s == nil {
		return
	}
	r.Absorb(s)
	r.Histogram(HistPlanLatency).ObserveDuration(s.Total())
	r.Histogram(HistRewritingsConsidered).Observe(considered)
}

// PhaseTotals is one phase's flattened lifetime aggregate.
type PhaseTotals struct {
	// Count is the total number of completed spans of the phase.
	Count int64 `json:"count"`
	// TotalNanos sums the phase's span durations, children included;
	// recursive phases count nested invocations at every level.
	TotalNanos int64 `json:"total_nanos"`
	// SelfNanos sums the time spent in the phase itself; self times
	// sum to true wall time even when phases recurse.
	SelfNanos int64 `json:"self_nanos"`
}

// RegistrySnapshot is a point-in-time copy of a registry. Cumulative
// snapshots subtract (Delta) to report an interval, and serialize to
// JSON with stable key order for the debug handler and metrics files.
type RegistrySnapshot struct {
	// Requests is the number of recorded planning requests.
	Requests int64 `json:"requests"`
	// UptimeNanos is the time since the registry was created.
	UptimeNanos int64 `json:"uptime_nanos"`
	// Counters holds the nonzero aggregated counters by name.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Phases holds the flattened phase aggregates by name.
	Phases map[string]PhaseTotals `json:"phases,omitempty"`
	// Histograms holds each named histogram's snapshot.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Concurrent recording
// may land between field reads; every completed Absorb/Record call is
// fully included.
func (r *Registry) Snapshot() *RegistrySnapshot {
	s := &RegistrySnapshot{}
	if r == nil {
		return s
	}
	s.Requests = r.requests.Load()
	s.UptimeNanos = int64(time.Since(r.created))
	vals := r.counters.Values()
	for c := Counter(0); c < NumCounters; c++ {
		if vals[c] != 0 {
			if s.Counters == nil {
				s.Counters = make(map[string]int64)
			}
			s.Counters[c.String()] = vals[c]
		}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.phases) > 0 {
		s.Phases = make(map[string]PhaseTotals, len(r.phases))
		for name, p := range r.phases {
			s.Phases[name] = PhaseTotals{
				Count:      p.count.Load(),
				TotalNanos: p.total.Load(),
				SelfNanos:  p.self.Load(),
			}
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists { //viewplan:nondet-ok each histogram snapshots independently into the range key's slot; iteration order cannot reach the result
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// Delta returns the change from prev to s: counters, phase times, and
// histogram buckets subtract; quantiles are recomputed from the bucket
// deltas (histogram Min/Max stay cumulative — see HistogramSnapshot).
// UptimeNanos becomes the interval length. A nil prev returns s.
func (s *RegistrySnapshot) Delta(prev *RegistrySnapshot) *RegistrySnapshot {
	if s == nil {
		return nil
	}
	if prev == nil {
		return s
	}
	out := &RegistrySnapshot{
		Requests:    s.Requests - prev.Requests,
		UptimeNanos: s.UptimeNanos - prev.UptimeNanos,
	}
	for name, v := range s.Counters {
		if d := v - prev.Counters[name]; d != 0 {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[name] = d
		}
	}
	for name, p := range s.Phases {
		q := prev.Phases[name]
		d := PhaseTotals{
			Count:      p.Count - q.Count,
			TotalNanos: p.TotalNanos - q.TotalNanos,
			SelfNanos:  p.SelfNanos - q.SelfNanos,
		}
		if d != (PhaseTotals{}) {
			if out.Phases == nil {
				out.Phases = make(map[string]PhaseTotals)
			}
			out.Phases[name] = d
		}
	}
	for name, h := range s.Histograms { //viewplan:nondet-ok Sub is a pure per-entry delta stored back under the range key, so iteration order cannot reach the result
		d := h.Sub(prev.Histograms[name])
		if d.Count != 0 {
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistogramSnapshot)
			}
			out.Histograms[name] = d
		}
	}
	return out
}

// JSON marshals the snapshot (indented; map keys sorted by
// encoding/json, so output is deterministic for fixed contents).
func (s *RegistrySnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
