package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const inputDL = `
q1(S, C) :- car(M, a), loc(a, C), part(S, M, C).
v1(M, D, C) :- car(M, D), loc(D, C).
v2(S, M, C) :- part(S, M, C).
v3(S) :- car(M, a), loc(a, C), part(S, M, C).
v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
v5(M, D, C) :- car(M, D), loc(D, C).
`

const factsDL = `
car(honda, a). car(toyota, a).
loc(a, sf). loc(a, la).
part(s1, honda, sf). part(s2, toyota, la).
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCoreCover(t *testing.T) {
	in := writeTemp(t, "q.dl", inputDL)
	var out bytes.Buffer
	if err := run(&out, config{algo: "corecover", verbose: true, model: "M2"}, []string{in}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"views: 5",
		"view equivalence classes: 4",
		"v4(M, a, C, S)   [M1 cost 1]",
		"filter (empty core)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunStar(t *testing.T) {
	in := writeTemp(t, "q.dl", inputDL)
	var out bytes.Buffer
	if err := run(&out, config{star: true, algo: "corecover", model: "M2"}, []string{in}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rewritings (2):") {
		t.Errorf("CoreCover* output:\n%s", out.String())
	}
}

func TestRunWithData(t *testing.T) {
	in := writeTemp(t, "q.dl", inputDL)
	data := writeTemp(t, "facts.dl", factsDL)
	for _, model := range []string{"M1", "M2", "M3"} {
		var out bytes.Buffer
		if err := run(&out, config{star: true, algo: "corecover", data: data, model: model}, []string{in}); err != nil {
			t.Fatalf("model %s: %v", model, err)
		}
		if !strings.Contains(out.String(), "plans over") {
			t.Errorf("model %s output missing plans:\n%s", model, out.String())
		}
		if model != "M1" && !strings.Contains(out.String(), "best:") {
			t.Errorf("model %s output missing best plan:\n%s", model, out.String())
		}
	}
}

func TestRunBaselines(t *testing.T) {
	in := writeTemp(t, "q.dl", inputDL)
	for _, algo := range []string{"minicon", "bucket", "naive"} {
		var out bytes.Buffer
		if err := run(&out, config{algo: algo, model: "M2"}, []string{in}); err != nil {
			t.Fatalf("algo %s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "rewritings") {
			t.Errorf("algo %s produced no rewritings:\n%s", algo, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	in := writeTemp(t, "q.dl", inputDL)
	var out bytes.Buffer
	if err := run(&out, config{algo: "nope", model: "M2"}, []string{in}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(&out, config{algo: "corecover", model: "M2"}, nil); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(&out, config{algo: "corecover", model: "M2"}, []string{"/does/not/exist.dl"}); err == nil {
		t.Error("unreadable file accepted")
	}
	onlyQuery := writeTemp(t, "only.dl", "q(X) :- p(X).")
	if err := run(&out, config{algo: "corecover", model: "M2"}, []string{onlyQuery}); err == nil {
		t.Error("input without views accepted")
	}
	data := writeTemp(t, "facts.dl", factsDL)
	if err := run(&out, config{algo: "corecover", data: data, model: "M9"}, []string{in}); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run(&out, config{algo: "minicon", trace: true, model: "M2"}, []string{in}); err == nil {
		t.Error("-trace with a non-corecover algorithm accepted")
	}
	if err := run(&out, config{algo: "minicon", explain: true, model: "M2"}, []string{in}); err == nil {
		t.Error("-explain with a non-corecover algorithm accepted")
	}
}

func TestRunMaxCap(t *testing.T) {
	in := writeTemp(t, "q.dl", inputDL)
	var out bytes.Buffer
	if err := run(&out, config{star: true, algo: "corecover", model: "M2", maxRW: 1}, []string{in}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rewritings (1):") {
		t.Errorf("cap ignored:\n%s", out.String())
	}
}

// TestRunTrace is the golden check for -trace: on the car/loc/part
// example the phase breakdown must list minimize, view tuples, tuple
// cores, and cover search in pipeline order, and the work counters for
// those phases must be nonzero.
func TestRunTrace(t *testing.T) {
	in := writeTemp(t, "q.dl", inputDL)
	var out bytes.Buffer
	if err := run(&out, config{algo: "corecover", model: "M2", trace: true}, []string{in}); err != nil {
		t.Fatal(err)
	}
	s := out.String()

	// Phases appear in pipeline order.
	phases := []string{"corecover", "minimize", "view-tuples", "tuple-cores", "cover-search"}
	pos := -1
	for _, ph := range phases {
		i := strings.Index(s, ph)
		if i < 0 {
			t.Fatalf("trace output missing phase %q:\n%s", ph, s)
		}
		if i < pos {
			t.Errorf("phase %q out of order:\n%s", ph, s)
		}
		pos = i
	}

	// Work counters are nonzero.
	for _, ctr := range []string{"view_tuples", "tuple_cores", "cover_nodes", "rewritings"} {
		found := false
		for _, line := range strings.Split(s, "\n") {
			f := strings.Fields(line)
			if len(f) == 2 && f[0] == ctr {
				found = true
				if f[1] == "0" {
					t.Errorf("counter %s is zero:\n%s", ctr, s)
				}
			}
		}
		if !found {
			t.Errorf("trace output missing counter %s:\n%s", ctr, s)
		}
	}
}

// TestRunTraceOut checks -traceout: the file is valid trace-event JSON
// with at least one complete ("X") span for the corecover phase.
func TestRunTraceOut(t *testing.T) {
	in := writeTemp(t, "q.dl", inputDL)
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := run(&out, config{algo: "corecover", model: "M2", traceout: path}, []string{in}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "corecover" {
			return
		}
	}
	t.Fatalf("no complete corecover span in trace:\n%s", data)
}

// TestRunExplain checks the -explain annotation: each view literal of a
// rewriting is shown with the minimized-query subgoals it covers.
func TestRunExplain(t *testing.T) {
	in := writeTemp(t, "q.dl", inputDL)
	var out bytes.Buffer
	if err := run(&out, config{star: true, algo: "corecover", model: "M2", explain: true}, []string{in}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"explain (minimized query:",
		"covers",
		"[view",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q:\n%s", want, s)
		}
	}
}

// TestRunExplainWithData checks that -explain together with -data prints
// the best plan's annotated step tree.
func TestRunExplainWithData(t *testing.T) {
	in := writeTemp(t, "q.dl", inputDL)
	data := writeTemp(t, "facts.dl", factsDL)
	var out bytes.Buffer
	cfg := config{star: true, algo: "corecover", data: data, model: "M2", explain: true, trace: true}
	if err := run(&out, cfg, []string{in}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"best:",
		"plan, cost",
		"|view|=",
		"m2-optimizer", // the optimizer phase shows up in the trace
	} {
		if !strings.Contains(s, want) {
			t.Errorf("explain+data output missing %q:\n%s", want, s)
		}
	}
}
