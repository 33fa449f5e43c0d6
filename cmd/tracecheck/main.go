// Command tracecheck validates a Chrome trace-event JSON file, the
// format written by `corecover -traceout` and viewplan.WriteTrace (and
// loadable at ui.perfetto.dev or chrome://tracing). It is the
// verification half of `make trace`: a trace that only a browser can
// reject is not a testable artifact.
//
// Usage:
//
//	tracecheck trace.json
//
// The checks follow the trace-event format's requirements for the
// subset we emit: a top-level traceEvents array; every event carries a
// name and a phase; metadata ("M") events name a process or thread;
// complete ("X") events carry pid, tid, a non-negative timestamp, and
// a non-negative duration. On success a one-line summary is printed;
// any violation exits nonzero with the offending event.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// event mirrors the fields tracecheck validates. Unknown fields are
// ignored so the format can grow.
type event struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	Pid  *int64          `json:"pid"`
	Tid  *int64          `json:"tid"`
	Args json.RawMessage `json:"args"`
}

type traceFile struct {
	TraceEvents []event `json:"traceEvents"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck trace.json")
		os.Exit(2)
	}
	if err := run(os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

func run(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("%s: not a trace-event file: %v", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("%s: traceEvents is empty", path)
	}
	var spans, metas int
	threads := map[[2]int64]bool{}
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("%s: event %d has no name", path, i)
		}
		switch ev.Ph {
		case "M":
			metas++
			if ev.Pid == nil {
				return fmt.Errorf("%s: metadata event %d (%s) has no pid", path, i, ev.Name)
			}
		case "X":
			spans++
			switch {
			case ev.Pid == nil || ev.Tid == nil:
				return fmt.Errorf("%s: span %d (%s) lacks pid/tid", path, i, ev.Name)
			case ev.Ts == nil || *ev.Ts < 0:
				return fmt.Errorf("%s: span %d (%s) has bad ts", path, i, ev.Name)
			case ev.Dur == nil || *ev.Dur < 0:
				return fmt.Errorf("%s: span %d (%s) has bad dur", path, i, ev.Name)
			}
			threads[[2]int64{*ev.Pid, *ev.Tid}] = true
		default:
			return fmt.Errorf("%s: event %d (%s) has unsupported phase %q", path, i, ev.Name, ev.Ph)
		}
	}
	if spans == 0 {
		return fmt.Errorf("%s: no complete (X) spans", path)
	}
	fmt.Printf("%s: ok — %d spans, %d metadata events, %d threads\n", path, spans, metas, len(threads))
	return nil
}
