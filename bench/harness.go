package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A workload runs in rounds. One round sets up a fixed list of ops from
// (seed, round index), runs them back to back with the clock on, then
// checks every output with the clock off. Rounds repeat until the timed
// part reaches the requested run length, so a run holds several set-ups
// (setup_s is their median) and every round of a given seed has the same
// inputs whatever the run length.
type workloadDef struct {
	name string
	// run executes one round untraced, through the default entry points.
	run func(env *env, round int) (*roundResult, error)
	// replay re-runs the same round in-process with a span around each
	// call into a layer, adding what it measures to env.layers.
	replay func(env *env, round int, log *spanLog) error
}

// repoRoot is the checkout the benchmark sits in: the nearest directory,
// from the working directory upwards, that holds BENCHMARK.json. Every
// file the benchmark reads or writes is named from it, so the program
// runs from the root, from bench/ or from anywhere below.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// env is what a run hands to its rounds.
type env struct {
	seed   int64
	trace  bool   // a --trace 1 run: its untraced rounds also fill the reported-only rows
	root   string // the checkout
	outDir string // root/bench/out: trace files, the planserve binary, view files
	layers sums   // accumulators behind the per-layer metrics

	replayLat []time.Duration // wall time of each replayed op
	mutateLat []time.Duration // serve-churn: each timed add+remove pair
	twoLat    []time.Duration // serve-warm, traced runs: each op of the 2-client replay
}

// rng returns the generator of one round. Everything a round generates
// comes from it, so the same (seed, round) gives the same ops.
func (e *env) rng(round int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + int64(round)))
}

// roundResult is what one untraced round measured.
type roundResult struct {
	setup  time.Duration   // building the round's inputs, warm-up included
	wall   time.Duration   // the timed region
	cpu    time.Duration   // CPU the system under test burned during wall
	lat    []time.Duration // one entry per attempted op
	failed int             // ops that errored or whose output was wrong
	rssKB  int64           // peak RSS of a planserve child; 0 in-process
	digest string          // digest of the round's verified outputs
}

// fail records one failed op; the first few are explained on stderr.
func (r *roundResult) fail(workload string, op int, err error) {
	if r.failed < 5 {
		fmt.Fprintf(os.Stderr, "bench: %s op %d failed: %v\n", workload, op, err)
	}
	r.failed++
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times; it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// procCPU is the user+system CPU time of another process.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSKB reads VmHWM of a process ("self" for this one).
func peakRSSKB(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
