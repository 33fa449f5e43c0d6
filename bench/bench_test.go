package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"viewplan"
)

// TestCheckersRejectWrongOutputs feeds the checkers a corrupted answer
// and a rewriting that is not equivalent; both must fail.
func TestCheckersRejectWrongOutputs(t *testing.T) {
	db := viewplan.NewDatabase()
	if err := db.LoadFacts("e1(a, b). e1(b, c). e2(b, d). e2(c, e)."); err != nil {
		t.Fatal(err)
	}
	q := viewplan.MustParseQuery("q(X, Z) :- e1(X, Y), e2(Y, Z)")
	want, err := db.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(want, want); err != nil {
		t.Fatalf("the base evaluation does not pass its own check: %v", err)
	}
	// One row altered, one row missing, one row extra.
	for name, facts := range map[string]string{
		"altered": "q(a, d). q(b, wrong).",
		"missing": "q(a, d).",
		"extra":   "q(a, d). q(b, e). q(c, c).",
	} {
		other := viewplan.NewDatabase()
		if err := other.LoadFacts(facts); err != nil {
			t.Fatal(err)
		}
		if err := checkAnswer(other.Relation("q"), want); err == nil {
			t.Errorf("checkAnswer accepted an answer with a row %s", name)
		}
	}
	if err := checkAnswer(nil, want); err == nil {
		t.Error("checkAnswer accepted a missing answer")
	}

	vs, err := viewplan.ParseViews("v1(X, Y) :- e1(X, Y).\nv2(X, Y) :- e2(X, Y).")
	if err != nil {
		t.Fatal(err)
	}
	good := viewplan.MustParseQuery("q(X, Z) :- v1(X, Y), v2(Y, Z)")
	bad := viewplan.MustParseQuery("q(X, Z) :- v1(X, Y), v2(W, Z)")
	if err := checkRewritings([]*viewplan.Query{good}, q, vs); err != nil {
		t.Errorf("checkRewritings rejected an equivalent rewriting: %v", err)
	}
	if err := checkRewritings([]*viewplan.Query{good, bad}, q, vs); err == nil {
		t.Error("checkRewritings accepted a rewriting that is not equivalent")
	}
	if err := checkRewritings(nil, q, vs); err == nil {
		t.Error("checkRewritings accepted an empty answer")
	}
}

// shrinkRounds makes a round about 1 % of its benchmark size.
func shrinkRounds(t *testing.T) {
	old := struct {
		plan                                     []string
		stars, chains, exec, warmReqs, churnReqs int
	}{planColdRound, rewriteStars, rewriteChains, execOpsPerDB, warmRequests, churnRequests}
	planColdRound = []string{"star_m2", "star_m2", "chain_m2", "star_m3"}
	rewriteStars, rewriteChains, execOpsPerDB, warmRequests, churnRequests = 1, 2, 1, 100, 100
	t.Cleanup(func() {
		planColdRound, rewriteStars, rewriteChains = old.plan, old.stars, old.chains
		execOpsPerDB, warmRequests, churnRequests = old.exec, old.warmReqs, old.churnReqs
	})
}

// inputDigests builds round 0 of every workload and returns the digest
// of each op list.
func inputDigests(t *testing.T, seed int64) map[string]string {
	e := &env{seed: seed}
	digests := map[string]string{}
	for name, build := range map[string]func(in *digest) error{
		"plan-cold": func(in *digest) error {
			rng := e.rng(0)
			_, err := e.buildPlanOps(rng, planColdClasses(rng), nil, in)
			return err
		},
		"rewrite-paper": func(in *digest) error { _, err := buildRewriteOps(e.rng(0), in); return err },
		"exec-blowup":   func(in *digest) error { _, err := e.buildExecDBs(e.rng(0), nil, in); return err },
		"serve-warm":    func(in *digest) error { _, _, err := warmInputs(e.rng(0), in); return err },
		"serve-churn":   func(in *digest) error { _, err := churnInputs(e.rng(0), in); return err },
	} {
		in := newDigest()
		if err := build(in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		digests[name] = in.sum()
	}
	return digests
}

// TestSeedDeterminesOps: the same seed gives the same op list, another
// seed another one.
func TestSeedDeterminesOps(t *testing.T) {
	shrinkRounds(t)
	first, again, other := inputDigests(t, 7), inputDigests(t, 7), inputDigests(t, 8)
	for name := range first {
		if first[name] != again[name] {
			t.Errorf("%s: seed 7 generated two different op lists", name)
		}
		if first[name] == other[name] {
			t.Errorf("%s: seeds 7 and 8 generated the same op list", name)
		}
	}
}

// TestSmoke runs every workload at about 1 % of its round size, untraced
// and traced, on a seed other than the default one, with the real
// planserve child. Every metric BENCHMARK.json names must come out
// finite, every op must verify, and the trace files must pass
// cmd/tracecheck.
func TestSmoke(t *testing.T) {
	shrinkRounds(t)
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(w.Name, defaultSeed+1, 0.001, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s is %v", w.Name, trace, name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want above 0", w.Name, name, m.Value)
				}
			}
		}
		traceFile := filepath.Join(root, "bench", "out", "trace-"+w.Name+".json")
		check := exec.Command("go", "run", "./cmd/tracecheck", traceFile)
		check.Dir = root
		if out, err := check.CombinedOutput(); err != nil {
			t.Errorf("tracecheck %s: %v\n%s", traceFile, err, out)
		}
	}
}

// TestBenchmarkFileMatchesProgram: BENCHMARK.json and the program agree
// on workloads, metric names and units, and the command names run.sh.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	var fileE2E, filePerLayer []metricDef
	for _, m := range bf.EndToEnd {
		fileE2E = append(fileE2E, metricDef{m.Name, m.Unit})
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		filePerLayer = append(filePerLayer, metricDef{m.Name, m.Unit})
	}
	for _, c := range []struct {
		what       string
		file, prog []metricDef
	}{{"end_to_end", fileE2E, endToEnd}, {"per_layer", filePerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.file), len(c.prog))
			continue
		}
		for i := range c.prog {
			if c.file[i] != c.prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the program %v", c.what, i, c.file[i], c.prog[i])
			}
		}
	}
	if _, err := os.Stat("run.sh"); err != nil || !strings.HasSuffix(strings.Join(bf.Command, " "), "bench/run.sh") {
		t.Errorf("BENCHMARK.json command %v does not name bench/run.sh (%v)", bf.Command, err)
	}
}
