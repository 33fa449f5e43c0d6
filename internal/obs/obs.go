// Package obs is the planner's observability layer: a lightweight,
// allocation-conscious tracer with hierarchical phase spans, atomic
// counters for planner-internal work, and snapshots renderable as
// human-readable text or JSON, with an optional log/slog sink for
// structured trace events.
//
// Everything is nil-safe: a nil *Tracer is the no-op default, so
// instrumented code pays only a pointer check when tracing is off.
// Spans must be started and ended from one goroutine (the planner is
// single-threaded per run); counters are atomic and may be incremented
// from any goroutine.
//
// Layers too deep to thread a per-run tracer through (the containment
// homomorphism search, which sits under every equivalence test) count
// into the process-wide Global counter set; a tracer attributes those
// to its own run by sampling Global around the run (AbsorbGlobal).
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names used by the planner pipeline. Instrumented code may use
// any string, but sharing these keeps snapshots and tools consistent.
const (
	PhaseCoreCover       = "corecover"
	PhaseMinimize        = "minimize"
	PhaseViewGrouping    = "view-grouping"
	PhaseViewTuples      = "view-tuples"
	PhaseTupleCores      = "tuple-cores"
	PhaseCoverSearch     = "cover-search"
	PhaseVerify          = "verify"
	PhaseAssemble        = "assemble"
	PhaseM2Optimizer     = "m2-optimizer"
	PhaseM3Optimizer     = "m3-optimizer"
	PhaseFilterSelection = "filter-selection"
	// PhaseEngineJoin wraps one call into the engine's hash-join kernel:
	// a JoinStep materializing an intermediate relation or a JoinCount
	// sizing one. It nests under whichever optimizer phase drove it.
	PhaseEngineJoin = "engine-join"
)

// Counter identifies one unit of planner-internal work. Counters are
// a closed enum so a CounterSet is a fixed array of atomics, not a map.
type Counter int

// The planner's work counters.
const (
	// CtrViewTuples counts view tuples generated (Section 3.3).
	CtrViewTuples Counter = iota
	// CtrTupleCores counts tuple-core computations (Definition 4.1).
	CtrTupleCores
	// CtrEmptyCores counts tuple-cores that came out empty (filter views).
	CtrEmptyCores
	// CtrCoverNodes counts cover-search nodes expanded.
	CtrCoverNodes
	// CtrCoverPruned counts cover-search branches pruned.
	CtrCoverPruned
	// CtrCoversFound counts covers that reached the verifier.
	CtrCoversFound
	// CtrVerifyChecks counts rewriting verifications attempted.
	CtrVerifyChecks
	// CtrVerifyAccepted counts verifications that produced a rewriting.
	CtrVerifyAccepted
	// CtrRewritings counts rewritings returned to the caller.
	CtrRewritings
	// CtrHomSearches counts homomorphism searches attempted.
	CtrHomSearches
	// CtrHomsFound counts homomorphisms found (yielded).
	CtrHomsFound
	// CtrJoinSteps counts engine join steps executed: the cost
	// simulation's JoinSteps and the executor's streaming joins.
	// Count-only probes (JoinCount) materialize nothing and are not
	// steps.
	CtrJoinSteps
	// CtrJoinRows counts rows in intermediate join results (for a
	// streaming join, the rows it emitted).
	CtrJoinRows
	// CtrOptStates counts optimizer search states expanded (M2 lattice
	// nodes popped).
	CtrOptStates
	// CtrOptOrders counts complete join orders the M3 branch-and-bound
	// reached (orders cut at a prefix are not counted).
	CtrOptOrders
	// CtrFilterCandidates counts filter literals tried (Section 5.1).
	CtrFilterCandidates
	// CtrFiltersAdded counts filter literals that lowered the cost.
	CtrFiltersAdded
	// CtrJoinProbeRows counts candidate rows pulled from join-index
	// buckets by the engine's hash-join kernel (probe-side work, before
	// constant and repeated-variable filtering), whether the kernel was
	// materializing the join or only counting it.
	CtrJoinProbeRows
	// CtrIRCacheHit counts intermediate relations, and memoized sizes
	// of intermediate relations, reused from the planner's IR cache
	// instead of being re-joined or re-counted.
	CtrIRCacheHit
	// CtrIRCacheMiss counts IR-cache lookups that fell through to a
	// real join or count (counted only while a cache is attached).
	CtrIRCacheMiss
	// CtrUnknownPreds counts join steps over predicates the database has
	// no relation for (a likely misnamed view; they join as empty).
	CtrUnknownPreds
	// CtrHomBacktracks counts candidate placements the homomorphism
	// kernel undid: a candidate target atom was tried for a source atom
	// and either failed to match or had its subtree exhausted.
	CtrHomBacktracks
	// CtrHomPrunes counts candidate target atoms the homomorphism kernel
	// eliminated without trying them: constant prefiltering at compile
	// time plus forward-checking kills when a fresh binding contradicts a
	// future source atom's candidate.
	CtrHomPrunes
	// CtrPlanCacheHit counts planning requests answered from the plan
	// cache without running the CoreCover pipeline.
	CtrPlanCacheHit
	// CtrPlanCacheMiss counts plan-cache lookups that fell through to a
	// cold planning run (counted only while a cache is attached).
	CtrPlanCacheMiss
	// CtrPlanCacheEvict counts plan-cache entries evicted to make room
	// under the capacity bound.
	CtrPlanCacheEvict
	// CtrPlanCacheBypass counts planning requests that skipped the plan
	// cache because the query is not exactly canonicalizable (oversized
	// body or built-in comparisons) or uses the planner's reserved
	// variable namespace.
	CtrPlanCacheBypass
	// CtrBatchedProbes counts view-tuple homomorphism probes evaluated
	// through a pooled batch frame instead of a per-view kernel setup.
	CtrBatchedProbes
	// CtrStreamJoins counts streaming join operators closed by the
	// iterator execution path.
	CtrStreamJoins
	// CtrStreamedRows counts rows emitted by streaming join operators —
	// rows that flowed through the pipeline without being materialized
	// into an intermediate relation.
	CtrStreamedRows

	// NumCounters is the number of defined counters.
	NumCounters
)

var counterNames = [NumCounters]string{
	CtrViewTuples:       "view_tuples",
	CtrTupleCores:       "tuple_cores",
	CtrEmptyCores:       "empty_cores",
	CtrCoverNodes:       "cover_nodes",
	CtrCoverPruned:      "cover_pruned",
	CtrCoversFound:      "covers_found",
	CtrVerifyChecks:     "verify_checks",
	CtrVerifyAccepted:   "verify_accepted",
	CtrRewritings:       "rewritings",
	CtrHomSearches:      "hom_searches",
	CtrHomsFound:        "homs_found",
	CtrJoinSteps:        "join_steps",
	CtrJoinRows:         "join_rows",
	CtrOptStates:        "opt_states",
	CtrOptOrders:        "opt_orders",
	CtrFilterCandidates: "filter_candidates",
	CtrFiltersAdded:     "filters_added",
	CtrJoinProbeRows:    "join_probe_rows",
	CtrIRCacheHit:       "ir_cache_hits",
	CtrIRCacheMiss:      "ir_cache_misses",
	CtrUnknownPreds:     "unknown_predicates",
	CtrHomBacktracks:    "hom_backtracks",
	CtrHomPrunes:        "hom_prunes",
	CtrPlanCacheHit:     "plan_cache_hits",
	CtrPlanCacheMiss:    "plan_cache_misses",
	CtrPlanCacheEvict:   "plan_cache_evictions",
	CtrPlanCacheBypass:  "plan_cache_bypass",
	CtrBatchedProbes:    "batched_probes",
	CtrStreamJoins:      "stream_joins",
	CtrStreamedRows:     "streamed_rows",
}

// String returns the counter's snake_case snapshot key.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// CounterValues is a plain copy of all counter values, indexed by Counter.
type CounterValues [NumCounters]int64

// CounterSet is a fixed set of atomic counters safe for concurrent use.
// The zero value is ready; a nil *CounterSet is a no-op.
type CounterSet struct {
	vals [NumCounters]atomic.Int64
}

// Add increments counter c by n. Nil-safe and race-free.
func (s *CounterSet) Add(c Counter, n int64) {
	if s == nil || c < 0 || c >= NumCounters {
		return
	}
	s.vals[c].Add(n)
}

// Get returns the current value of c (0 on a nil set).
func (s *CounterSet) Get(c Counter) int64 {
	if s == nil || c < 0 || c >= NumCounters {
		return 0
	}
	return s.vals[c].Load()
}

// Values copies out every counter.
func (s *CounterSet) Values() CounterValues {
	var out CounterValues
	if s == nil {
		return out
	}
	for i := range out {
		out[i] = s.vals[i].Load()
	}
	return out
}

// Reset zeroes every counter.
func (s *CounterSet) Reset() {
	if s == nil {
		return
	}
	for i := range s.vals {
		s.vals[i].Store(0)
	}
}

// Global collects process-wide counters from layers that cannot carry a
// per-run tracer (package containment's homomorphism search). Per-run
// attribution happens by delta: sample Global before a run and call
// Tracer.AbsorbGlobal after. Concurrent runs each absorb whatever
// landed in the window, so deltas can mix under concurrent requests; totals
// stay exact.
var Global CounterSet

// span is one node of the aggregated phase tree: repeated Start/End of
// the same phase under the same parent accumulate here.
type span struct {
	name     string
	parent   *span
	children []*span
	count    int64
	total    time.Duration
}

func (n *span) child(name string) *span {
	for _, c := range n.children {
		if c.name == name {
			return c
		}
	}
	c := &span{name: name, parent: n}
	n.children = append(n.children, c)
	return c
}

// Tracer records hierarchical phase timings and per-run counters for
// one planning run. Create with New or NewWithSink; the nil *Tracer is
// the zero-overhead no-op default.
type Tracer struct {
	mu       sync.Mutex
	root     span
	cur      *span
	counters CounterSet
	sink     *slog.Logger
	capture  bool
	events   []SpanEvent
}

// SpanEvent is one completed span occurrence recorded by a tracer in
// capture mode: unlike the aggregated phase tree, each Start/End pair
// keeps its own wall-clock interval, which is what the Chrome
// trace-event export (WriteTraceEvents) needs to draw a timeline.
type SpanEvent struct {
	// Phase is the span name.
	Phase string
	// Start is the span's wall-clock start.
	Start time.Time
	// Duration is the span's elapsed time.
	Duration time.Duration
}

// CaptureEvents switches the tracer into event-capture mode: every span
// that ends from now on is additionally recorded as a SpanEvent (one
// allocation amortized per span end), retrievable with Events and
// exportable with WriteTraceEvents. Nil-safe.
func (t *Tracer) CaptureEvents() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.capture = true
	t.mu.Unlock()
}

// Events copies out the captured span events (nil unless CaptureEvents
// was called), ordered by span end time.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) == 0 {
		return nil
	}
	out := make([]SpanEvent, len(t.events))
	copy(out, t.events)
	return out
}

// New returns an empty tracer.
func New() *Tracer {
	t := &Tracer{}
	t.cur = &t.root
	return t
}

// NewWithSink returns a tracer that additionally emits a structured
// log event (debug level) each time a span ends and for every Event
// call. l may be nil, which is equivalent to New.
func NewWithSink(l *slog.Logger) *Tracer {
	t := New()
	t.sink = l
	return t
}

// Span is an open phase started by Tracer.Start. The zero Span (from a
// nil tracer) is a valid no-op.
type Span struct {
	t     *Tracer
	node  *span
	start time.Time
}

// Start opens a phase span nested under the currently open span (or at
// the root). Repeated spans of the same phase under the same parent
// aggregate: the snapshot reports their total duration and count.
// Nil-safe: on a nil tracer it returns a no-op Span without allocating.
func (t *Tracer) Start(phase string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	if t.cur == nil {
		t.cur = &t.root
	}
	node := t.cur.child(phase)
	t.cur = node
	t.mu.Unlock()
	return Span{t: t, node: node, start: time.Now()}
}

// End closes the span, accumulating its wall time and invocation
// count. No-op on the zero Span. Spans must end in LIFO order.
func (s Span) End() {
	if s.t == nil {
		return
	}
	elapsed := time.Since(s.start)
	s.t.mu.Lock()
	s.node.count++
	s.node.total += elapsed
	s.t.cur = s.node.parent
	if s.t.capture {
		s.t.events = append(s.t.events, SpanEvent{Phase: s.node.name, Start: s.start, Duration: elapsed})
	}
	s.t.mu.Unlock()
	if s.t.sink != nil {
		s.t.sink.LogAttrs(context.Background(), slog.LevelDebug, "phase",
			slog.String("phase", s.node.name),
			slog.Duration("elapsed", elapsed))
	}
}

// Add increments a per-run counter. Nil-safe and race-free.
func (t *Tracer) Add(c Counter, n int64) {
	if t == nil {
		return
	}
	t.counters.Add(c, n)
}

// Counter returns the tracer's current value of c (0 on nil).
func (t *Tracer) Counter(c Counter) int64 {
	if t == nil {
		return 0
	}
	return t.counters.Get(c)
}

// AbsorbGlobal adds the growth of the process-wide Global counters
// since base (a Global.Values sample taken when the run started) into
// this tracer's own counters. Nil-safe.
func (t *Tracer) AbsorbGlobal(base CounterValues) {
	if t == nil {
		return
	}
	cur := Global.Values()
	for c := Counter(0); c < NumCounters; c++ {
		if d := cur[c] - base[c]; d > 0 {
			t.counters.Add(c, d)
		}
	}
}

// HasSink reports whether structured events would be emitted; callers
// gate attr construction on it to keep the no-sink path allocation-free.
func (t *Tracer) HasSink() bool { return t != nil && t.sink != nil }

// Event emits an ad-hoc structured trace event (debug level) to the
// sink, if any. Nil-safe; gate hot-path calls with HasSink.
func (t *Tracer) Event(name string, attrs ...slog.Attr) {
	if t == nil || t.sink == nil {
		return
	}
	t.sink.LogAttrs(context.Background(), slog.LevelDebug, name, attrs...)
}

// PhaseStats is one node of a snapshot's phase tree.
type PhaseStats struct {
	// Phase is the span name.
	Phase string `json:"phase"`
	// Count is how many times the span was started and ended.
	Count int64 `json:"count"`
	// Nanos is the accumulated wall time in nanoseconds, children
	// included (total time).
	Nanos int64 `json:"nanos"`
	// SelfNanos is Nanos minus the time accumulated in child spans:
	// the time spent in this phase itself. When a phase recurses (a
	// same-named span opened under itself), summing Nanos
	// across same-named nodes double-counts the nested invocations;
	// SelfNanos sums to the true wall time, so flattened by-name
	// aggregations (experiments points, the Registry) must use it.
	SelfNanos int64 `json:"self_nanos"`
	// Children are nested phases in first-start order.
	Children []PhaseStats `json:"children,omitempty"`
}

// Duration returns the accumulated wall time, children included.
func (p PhaseStats) Duration() time.Duration { return time.Duration(p.Nanos) }

// SelfDuration returns the time spent in the phase itself.
func (p PhaseStats) SelfDuration() time.Duration { return time.Duration(p.SelfNanos) }

// Snapshot is a point-in-time copy of a tracer's phase tree and
// counters. It serializes to JSON losslessly (round-trips) and renders
// as aligned human-readable text.
type Snapshot struct {
	// Phases are the root-level phases in first-start order.
	Phases []PhaseStats `json:"phases,omitempty"`
	// Counters maps counter names to values; zero counters are omitted.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Snapshot copies the tracer's current state. Open spans contribute
// their counts so far (completed invocations only). A nil tracer
// yields an empty snapshot.
func (t *Tracer) Snapshot() *Snapshot {
	s := &Snapshot{}
	if t == nil {
		return s
	}
	t.mu.Lock()
	s.Phases = copyPhases(t.root.children)
	t.mu.Unlock()
	vals := t.counters.Values()
	for c := Counter(0); c < NumCounters; c++ {
		if vals[c] != 0 {
			if s.Counters == nil {
				s.Counters = make(map[string]int64)
			}
			s.Counters[c.String()] = vals[c]
		}
	}
	return s
}

func copyPhases(nodes []*span) []PhaseStats {
	if len(nodes) == 0 {
		return nil
	}
	out := make([]PhaseStats, len(nodes))
	for i, n := range nodes {
		var childTotal time.Duration
		for _, c := range n.children {
			childTotal += c.total
		}
		self := n.total - childTotal
		if self < 0 {
			// An open parent observed with completed children: the
			// parent's completed total lags its children's.
			self = 0
		}
		out[i] = PhaseStats{
			Phase:     n.name,
			Count:     n.count,
			Nanos:     int64(n.total),
			SelfNanos: int64(self),
			Children:  copyPhases(n.children),
		}
	}
	return out
}

// Phase finds a phase by name anywhere in the tree (depth-first,
// first match) and returns it, or nil.
func (s *Snapshot) Phase(name string) *PhaseStats {
	if s == nil {
		return nil
	}
	return findPhase(s.Phases, name)
}

func findPhase(ps []PhaseStats, name string) *PhaseStats {
	for i := range ps {
		if ps[i].Phase == name {
			return &ps[i]
		}
		if f := findPhase(ps[i].Children, name); f != nil {
			return f
		}
	}
	return nil
}

// Counter returns a counter by name (0 when absent).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Total sums the root-level phase durations: the snapshot's notion of
// total observed planning time.
func (s *Snapshot) Total() time.Duration {
	if s == nil {
		return 0
	}
	var sum time.Duration
	for _, p := range s.Phases {
		sum += p.Duration()
	}
	return sum
}

// JSON marshals the snapshot (indented, stable field order; the
// counters map is sorted by encoding/json).
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Text renders the snapshot as an aligned phase-breakdown table
// followed by the counters, for -trace style terminal output.
func (s *Snapshot) Text() string {
	var b strings.Builder
	if len(s.Phases) > 0 {
		b.WriteString("phase breakdown:\n")
		width := 0
		var measure func(ps []PhaseStats, depth int)
		measure = func(ps []PhaseStats, depth int) {
			for _, p := range ps {
				if w := 2*depth + len(p.Phase); w > width {
					width = w
				}
				measure(p.Children, depth+1)
			}
		}
		measure(s.Phases, 1)
		var render func(ps []PhaseStats, depth int)
		render = func(ps []PhaseStats, depth int) {
			for _, p := range ps {
				indent := strings.Repeat("  ", depth)
				fmt.Fprintf(&b, "%s%-*s %6dx %12s\n",
					indent, width-2*(depth-1), p.Phase, p.Count, p.Duration().Round(time.Microsecond))
				render(p.Children, depth+1)
			}
		}
		render(s.Phases, 1)
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		names := make([]string, 0, len(s.Counters))
		width := 0
		for n := range s.Counters {
			names = append(names, n)
			if len(n) > width {
				width = len(n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-*s %10d\n", width, n, s.Counters[n])
		}
	}
	return b.String()
}
