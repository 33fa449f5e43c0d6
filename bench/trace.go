package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer during the traced replay.
type span struct {
	name       string
	start, end time.Duration // since the log's epoch
	parent     int           // index of the enclosing span, -1 at the top
	op         int           // the replayed op this span belongs to
	child      time.Duration // time covered by direct children
}

// spanLog keeps the replay's spans in memory; they are written out
// once, when the run ends. The replay is single-goroutine, so the open
// spans form a stack.
type spanLog struct {
	epoch time.Time
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span under the innermost open one.
func (l *spanLog) begin(name string, op int) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.epoch), parent: parent, op: op})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

// end closes the innermost open span, which must be id, and returns
// its duration.
func (l *spanLog) end(id int) time.Duration {
	if n := len(l.open); n == 0 || l.open[n-1] != id {
		panic("bench: spans closed out of order")
	}
	l.open = l.open[:len(l.open)-1]
	s := &l.spans[id]
	s.end = time.Since(l.epoch)
	d := s.end - s.start
	if s.parent >= 0 {
		l.spans[s.parent].child += d
	}
	return d
}

// timed runs fn inside a span. A nil log (an untraced run sharing
// set-up code with the replay) just runs fn.
func (l *spanLog) timed(name string, op int, fn func()) time.Duration {
	if l == nil {
		fn()
		return 0
	}
	id := l.begin(name, op)
	fn()
	return l.end(id)
}

// maxFileSpans bounds the trace file: the serve replays record a few
// hundred thousand spans, and the first ones show the same shape.
const maxFileSpans = 50000

// writeTrace writes the spans as trace-event JSON (the format
// cmd/tracecheck validates and ui.perfetto.dev loads).
func (l *spanLog) writeTrace(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	micros := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	n := min(len(l.spans), maxFileSpans)
	events := make([]event, 0, n+2)
	events = append(events,
		event{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench " + workload}},
		event{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "traced replay"}})
	for i := range l.spans[:n] {
		s := &l.spans[i]
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: micros(s.start), Dur: micros(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]any{"op": s.op, "id": i, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sums accumulates named quantities; per-layer metrics are ratios of
// two of its entries (a total over a count, useful over attempted).
type sums map[string]float64

func (s sums) add(name string, v float64) { s[name] += v }

func (s sums) addDur(name string, d time.Duration) { s[name] += float64(d.Nanoseconds()) }

// ratio is s[num]/s[den], or 0 when the denominator never moved (the
// layer is not on this workload's path).
func (s sums) ratio(num, den string) float64 {
	if s[den] == 0 {
		return 0
	}
	return s[num] / s[den]
}
