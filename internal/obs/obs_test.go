package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil tracer must be safe for every operation and produce no output.
func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(PhaseMinimize)
	sp.End()
	tr.Add(CtrViewTuples, 5)
	tr.AbsorbGlobal(Global.Values())
	tr.Event("join-step", slog.Int("rows", 3))
	if tr.HasSink() {
		t.Error("nil tracer claims a sink")
	}
	if got := tr.Counter(CtrViewTuples); got != 0 {
		t.Errorf("nil tracer counter = %d, want 0", got)
	}
	snap := tr.Snapshot()
	if len(snap.Phases) != 0 || len(snap.Counters) != 0 {
		t.Errorf("nil tracer snapshot not empty: %+v", snap)
	}
	if snap.Phase("minimize") != nil || snap.Counter("view_tuples") != 0 || snap.Total() != 0 {
		t.Error("nil tracer snapshot lookups not zero")
	}
	// The zero Span must be a no-op too.
	var zero Span
	zero.End()
	// And a nil snapshot's accessors must not panic.
	var ns *Snapshot
	if ns.Phase("x") != nil || ns.Counter("x") != 0 || ns.Total() != 0 {
		t.Error("nil snapshot lookups not zero")
	}
}

// A nil CounterSet is a no-op; out-of-range counters are ignored.
func TestCounterSetNilAndBounds(t *testing.T) {
	var cs *CounterSet
	cs.Add(CtrViewTuples, 1)
	cs.Reset()
	if cs.Get(CtrViewTuples) != 0 {
		t.Error("nil counter set returned nonzero")
	}
	if v := cs.Values(); v != (CounterValues{}) {
		t.Error("nil counter set values not zero")
	}
	var real CounterSet
	real.Add(Counter(-1), 7)
	real.Add(NumCounters, 7)
	if real.Values() != (CounterValues{}) {
		t.Error("out-of-range Add mutated the set")
	}
	if real.Get(Counter(-1)) != 0 || real.Get(NumCounters) != 0 {
		t.Error("out-of-range Get returned nonzero")
	}
}

// Spans nest under the currently open span and aggregate repeats.
func TestSpanNesting(t *testing.T) {
	tr := New()
	run := tr.Start(PhaseCoreCover)
	for i := 0; i < 3; i++ {
		inner := tr.Start(PhaseMinimize)
		inner.End()
	}
	cover := tr.Start(PhaseCoverSearch)
	v := tr.Start(PhaseVerify)
	v.End()
	v = tr.Start(PhaseVerify)
	v.End()
	cover.End()
	run.End()

	snap := tr.Snapshot()
	if len(snap.Phases) != 1 || snap.Phases[0].Phase != PhaseCoreCover {
		t.Fatalf("root phases = %+v, want one %q", snap.Phases, PhaseCoreCover)
	}
	root := snap.Phases[0]
	if len(root.Children) != 2 {
		t.Fatalf("children = %+v, want [minimize cover-search]", root.Children)
	}
	if root.Children[0].Phase != PhaseMinimize || root.Children[0].Count != 3 {
		t.Errorf("minimize = %+v, want count 3", root.Children[0])
	}
	if root.Children[1].Phase != PhaseCoverSearch {
		t.Errorf("second child = %+v", root.Children[1])
	}
	verify := snap.Phase(PhaseVerify)
	if verify == nil || verify.Count != 2 {
		t.Fatalf("verify = %+v, want count 2 nested under cover-search", verify)
	}
	if got := snap.Phases[0].Duration(); got < 0 {
		t.Errorf("negative duration %v", got)
	}
	if snap.Total() != root.Duration() {
		t.Errorf("Total %v != root %v", snap.Total(), root.Duration())
	}
	// A child's time is included in (and cannot exceed) its parent's.
	if verify.Duration() > root.Children[1].Duration() {
		t.Errorf("verify %v exceeds cover-search %v", verify.Duration(), root.Children[1].Duration())
	}
}

// Counters must be race-free under concurrent increments (run with -race).
func TestCountersConcurrent(t *testing.T) {
	tr := New()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Add(CtrHomSearches, 1)
				Global.Add(CtrHomsFound, 1)
			}
		}()
	}
	base := Global.Values() // sampled mid-flight: deltas stay non-negative
	wg.Wait()
	if got := tr.Counter(CtrHomSearches); got != workers*perWorker {
		t.Errorf("tracer counter = %d, want %d", got, workers*perWorker)
	}
	tr.AbsorbGlobal(base)
	if got := tr.Counter(CtrHomsFound); got <= 0 {
		t.Errorf("absorbed global delta = %d, want > 0", got)
	}
}

// Concurrent span traffic on separate tracers plus shared counters must
// be race-clean (the experiments package runs one tracer per query).
func TestTracerPerGoroutine(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := New()
			for i := 0; i < 100; i++ {
				sp := tr.Start(PhaseTupleCores)
				tr.Add(CtrTupleCores, 1)
				sp.End()
			}
			if tr.Snapshot().Phase(PhaseTupleCores).Count != 100 {
				t.Error("lost spans")
			}
		}()
	}
	wg.Wait()
}

// JSON snapshots round-trip losslessly.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := New()
	run := tr.Start(PhaseCoreCover)
	min := tr.Start(PhaseMinimize)
	time.Sleep(time.Millisecond)
	min.End()
	run.End()
	tr.Add(CtrViewTuples, 42)
	tr.Add(CtrRewritings, 2)

	snap := tr.Snapshot()
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*snap, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, *snap)
	}
	if back.Phase(PhaseMinimize).Duration() <= 0 {
		t.Error("duration lost in round trip")
	}
	if back.Counter("view_tuples") != 42 {
		t.Errorf("counter lost: %d", back.Counter("view_tuples"))
	}
}

// Text renders the phase tree in order with counts and the counters.
func TestSnapshotText(t *testing.T) {
	tr := New()
	run := tr.Start(PhaseCoreCover)
	for _, ph := range []string{PhaseMinimize, PhaseViewTuples, PhaseTupleCores, PhaseCoverSearch} {
		sp := tr.Start(ph)
		sp.End()
	}
	run.End()
	tr.Add(CtrViewTuples, 7)
	text := tr.Snapshot().Text()
	prev := -1
	for _, ph := range []string{PhaseCoreCover, PhaseMinimize, PhaseViewTuples, PhaseTupleCores, PhaseCoverSearch} {
		idx := strings.Index(text, ph)
		if idx < 0 {
			t.Fatalf("text missing %q:\n%s", ph, text)
		}
		if idx < prev {
			t.Errorf("%q out of order:\n%s", ph, text)
		}
		prev = idx
	}
	if !strings.Contains(text, "view_tuples") || !strings.Contains(text, "7") {
		t.Errorf("text missing counter:\n%s", text)
	}
}

// The slog sink receives one event per span end plus explicit events.
func TestSinkEvents(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tr := NewWithSink(logger)
	if !tr.HasSink() {
		t.Fatal("sink not detected")
	}
	sp := tr.Start(PhaseMinimize)
	sp.End()
	tr.Event("join-step", slog.String("pred", "car"), slog.Int("rows", 9))
	out := buf.String()
	for _, want := range []string{"msg=phase", "phase=minimize", "msg=join-step", "pred=car", "rows=9"} {
		if !strings.Contains(out, want) {
			t.Errorf("sink output missing %q:\n%s", want, out)
		}
	}
	// NewWithSink(nil) degrades to a plain tracer.
	if NewWithSink(nil).HasSink() {
		t.Error("nil sink reported present")
	}
}

// Counter names are unique and defined for every slot.
func TestCounterNames(t *testing.T) {
	seen := make(map[string]bool)
	for c := Counter(0); c < NumCounters; c++ {
		n := c.String()
		if n == "" {
			t.Errorf("counter %d has no name", c)
		}
		if seen[n] {
			t.Errorf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
	if got := Counter(-3).String(); got != "counter(-3)" {
		t.Errorf("out-of-range name = %q", got)
	}
}

// Self time must exclude child time, so flattened by-name sums don't
// double-count recursing phases (a span opened under one of the same
// name).
func TestSelfTimeSeparatesRecursion(t *testing.T) {
	tr := New()
	outer := tr.Start(PhaseCoverSearch)
	inner := tr.Start(PhaseCoverSearch) // recursion under the same name
	time.Sleep(2 * time.Millisecond)
	inner.End()
	outer.End()

	snap := tr.Snapshot()
	root := snap.Phases[0]
	if root.Phase != PhaseCoverSearch || len(root.Children) != 1 {
		t.Fatalf("tree = %+v", snap.Phases)
	}
	child := root.Children[0]
	if child.Phase != PhaseCoverSearch {
		t.Fatalf("child = %+v", child)
	}
	// Total by name double-counts; self by name does not.
	totalByName := root.Nanos + child.Nanos
	selfByName := root.SelfNanos + child.SelfNanos
	if totalByName <= root.Nanos {
		t.Errorf("expected the naive by-name total %d to exceed wall %d", totalByName, root.Nanos)
	}
	if selfByName != root.Nanos {
		t.Errorf("self times sum to %d, want the wall time %d", selfByName, root.Nanos)
	}
	if child.SelfNanos != child.Nanos {
		t.Errorf("leaf self %d != leaf total %d", child.SelfNanos, child.Nanos)
	}
	if root.SelfNanos >= root.Nanos {
		t.Errorf("parent self %d not below its total %d", root.SelfNanos, root.Nanos)
	}
	if root.SelfDuration()+child.SelfDuration() != root.Duration() {
		t.Error("SelfDuration accessors disagree")
	}
}

// Self times telescope: over any snapshot, the self times of a subtree
// sum exactly to the root's total.
func TestSelfTimeTelescopes(t *testing.T) {
	tr := New()
	run := tr.Start(PhaseCoreCover)
	for i := 0; i < 3; i++ {
		a := tr.Start(PhaseViewTuples)
		b := tr.Start(PhaseTupleCores)
		b.End()
		a.End()
	}
	run.End()
	snap := tr.Snapshot()
	var sumSelf func(ps []PhaseStats) int64
	sumSelf = func(ps []PhaseStats) int64 {
		var s int64
		for _, p := range ps {
			s += p.SelfNanos + sumSelf(p.Children)
		}
		return s
	}
	root := snap.Phases[0]
	if got := root.SelfNanos + sumSelf(root.Children); got != root.Nanos {
		t.Errorf("self times sum to %d, want root total %d", got, root.Nanos)
	}
}

// Every counter must have a name string and a row in DESIGN.md's
// counter table: adding a Counter without documenting it fails here.
func TestCounterNamesComplete(t *testing.T) {
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatalf("reading DESIGN.md: %v", err)
	}
	doc := string(design)
	for c := Counter(0); c < NumCounters; c++ {
		name := counterNames[c]
		if name == "" {
			t.Errorf("counter %d has no entry in counterNames", int(c))
			continue
		}
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("counter %q has no row in DESIGN.md's counter table; document what it measures", name)
		}
	}
}
