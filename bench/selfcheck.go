package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runChild runs one workload in a process of its own, as the driver
// does, so that peak RSS and warm-up are that run's alone. The child's
// report is copied to echo when it is not nil.
func runChild(workload string, seed int64, seconds float64, trace int, echo io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo != nil {
		echo.Write(out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// quartiles are Python's statistics.quantiles(values, n=4), the
// estimator the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	m := len(v)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := i*(m+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// selfcheckRuns is the number of seeds in a set, the driver's ten.
const selfcheckRuns = 10

// exactCounts are the reported rows that a seed fixes whatever the run
// length or the machine; two runs of one seed must agree on them.
var exactCounts = []string{"e2e.plan_cost_mean", "e2e.exec_peak_rows_mean"}

// selfCheck does what the driver does to accept the benchmark: two sets
// of runs per workload, one seed per run; every metric's spread (the
// distance between its quartiles over its median) must stay within its
// bound, setup_s excepted, and the second median must not be worse than
// the first by more than the bound. Each set ends with one traced run
// under the default seed, and the two must agree on the exact counts.
func selfCheck(seconds float64) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-14s %-14s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "median A", "spread", "median B", "spread", "B worse", "bound")
	for _, w := range bf.Workloads {
		var sets [2]map[string][]float64
		var traced [2]*result
		for s := range sets {
			sets[s] = map[string][]float64{}
			for seed := int64(1); seed <= selfcheckRuns; seed++ {
				res, err := runChild(w.Name, seed, seconds, 0, nil)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
			if traced[s], err = runChild(w.Name, defaultSeed, seconds, 1, nil); err != nil {
				return err
			}
		}
		for _, m := range bf.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound || (m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound) {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-14s %-14s %12.4f %8.4f %12.4f %8.4f %+8.4f %6.2f%s\n",
				w.Name, m.Name, a2, spreadA, b2, spreadB, worse, m.Bound, verdict)
		}
		for _, name := range exactCounts {
			a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
			if a == 0 && b == 0 {
				continue // not on this workload's path
			}
			verdict := "  identical"
			if a != b {
				verdict = "  DIFFERS"
				bad++
			}
			fmt.Printf("%-14s %-24s %12.4f %21.4f%s\n", w.Name, name, a, b, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d (metric, workload) pairs exceed their bound or differ", bad)
	}
	return nil
}
