// Command bench is the repository's one benchmark: five seeded
// workloads over the whole request path, verified outputs, end-to-end
// metrics with tracing off and a per-layer table from a traced replay.
// BENCHMARK.json at the repository root names its command, workloads and
// metrics; README.md in this directory explains them.
//
// Usage, from this directory (or through run.sh from the root):
//
//	go run . --workload plan-cold --seed 1 --seconds 10 --trace 0
//	go run .                 # every workload, untraced then traced
//	go run . --selfcheck     # two sets of ten seeds against BENCHMARK.json's bounds
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads are the five of BENCHMARK.json, which says why each exists.
var workloads = []*workloadDef{
	{name: "plan-cold", run: runPlanCold, replay: replayPlanCold},
	{name: "rewrite-paper", run: runRewritePaper, replay: replayRewritePaper},
	{name: "exec-blowup", run: runExecBlowup, replay: replayExecBlowup},
	{name: "serve-warm", run: runServeWarm, replay: replayServeWarm},
	{name: "serve-churn", run: runServeChurn, replay: replayServeChurn},
}

// defaultSeed is the seed of the pinned digests in expected/.
const defaultSeed = 1

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run; all runs each one untraced, then traced")
		seed      = flag.Int64("seed", defaultSeed, "seed of every generated input")
		seconds   = flag.Float64("seconds", 15, "length of the timed part of a run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced replay")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of ten seeds per workload and hold them to BENCHMARK.json's bounds")
	)
	flag.Parse()
	var err error
	switch {
	case *seconds <= 0:
		err = fmt.Errorf("--seconds must be above 0, got %g", *seconds)
	case *selfcheck:
		err = selfCheck(*seconds)
	case *name == "all":
		for _, w := range workloads {
			for tr := 0; tr <= 1 && err == nil; tr++ {
				_, err = runChild(w.name, *seed, *seconds, tr, os.Stdout)
			}
		}
	default:
		var res *result
		if res, err = runOne(*name, *seed, *seconds, *trace == 1); err == nil && !res.Correct {
			err = fmt.Errorf("%s: %d of %d ops failed verification, or round 0 does not match its pinned digest", *name, res.Failed, res.Attempted)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is a single run: rounds of one workload until the timed part
// reaches the run length, then (traced runs) the replay of those rounds.
// It prints the report and, last, the result line.
func runOne(name string, seed int64, seconds float64, trace bool) (*result, error) {
	var w *workloadDef
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, trace: trace, root: root, outDir: filepath.Join(root, "bench", "out"), layers: sums{}}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if name == "serve-warm" || name == "serve-churn" {
		if err := buildPlanserve(e); err != nil {
			return nil, err
		}
	}
	budget := time.Duration(seconds * float64(time.Second))
	if trace {
		// Half the run measures untraced, half replays under spans.
		budget /= 2
	}
	var t totals
	correct := true
	for t.wall < budget {
		r, err := w.run(e, t.rounds)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", name, t.rounds, err)
		}
		if t.rounds == 0 && seed == defaultSeed {
			if err := checkPinned(e.root, name, r.digest); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				correct = false
			}
		}
		t.add(r)
	}
	sort.Slice(t.lat, func(i, j int) bool { return t.lat[i] < t.lat[j] })

	var values map[string]float64
	defs := endToEnd
	if trace {
		log := newSpanLog()
		for round := 0; round < t.rounds; round++ {
			if err := w.replay(e, round, log); err != nil {
				return nil, fmt.Errorf("%s replay of round %d: %w", name, round, err)
			}
		}
		if err := log.writeTrace(filepath.Join(e.outDir, "trace-"+name+".json"), name); err != nil {
			return nil, err
		}
		values, defs = perLayerValues(e, &t), perLayer
	} else if values, err = t.endToEndValues(); err != nil {
		return nil, err
	}

	res := &result{
		Correct:   correct && t.failed == 0,
		Attempted: len(t.lat),
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  nproc %d  GOMAXPROCS %d  %s\n",
		name, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("rounds %d (set-up samples)  ops %d (latency samples; %d beyond p90, %d beyond p99)  failed %d  timed %.3f s\n",
		t.rounds, len(t.lat), len(t.lat)/10, len(t.lat)/100, t.failed, t.wall.Seconds())
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Printf("  %-34s %16.4f %s\n", d.name, values[d.name], d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// checkPinned compares round 0's output digest under the default seed
// with the one recorded in expected/digests.json.
func checkPinned(root, name, got string) error {
	data, err := os.ReadFile(filepath.Join(root, "bench", "expected", "digests.json"))
	if err != nil {
		return err
	}
	var pinned map[string]string
	if err := json.Unmarshal(data, &pinned); err != nil {
		return fmt.Errorf("expected/digests.json: %w", err)
	}
	if want := pinned[name]; got != want {
		return fmt.Errorf("%s: outputs of round 0 under seed %d digest to %s, expected/digests.json pins %s", name, defaultSeed, got, want)
	}
	return nil
}
