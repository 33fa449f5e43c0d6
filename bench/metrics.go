package main

import (
	"sort"
	"time"
)

// metricDef names one metric of BENCHMARK.json; the bounds and
// directions live there, the names and units must agree (a test checks).
type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

var corecoverPhases = []string{"minimize", "view-grouping", "view-tuples", "tuple-cores", "cover-search", "verify", "assemble"}

var planClasses = []string{"star_m2", "chain_m2", "star_m3"}

// perLayer come from a traced run: its untraced half (the e2e.* rows and
// what the socket shows) and its traced in-process replay (the rest). A
// layer that is not on a workload's path reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cq.parse_us", "us"},
		{"cq.canon_key_us", "us"},
		{"cq.render_us", "us"},
		{"containment.minimize_us", "us"},
		{"containment.hom_searches", "count"},
		{"containment.hom_backtracks", "count"},
		{"containment.hom_cache_hit_ratio", "ratio"},
		{"views.tuples_us", "us"},
		{"views.tuples_count", "count"},
		{"corecover.gmr_us", "us"},
		{"corecover.star_us", "us"},
	}
	for _, p := range corecoverPhases {
		defs = append(defs, metricDef{"corecover.phase." + p + "_us", "us"})
	}
	defs = append(defs,
		metricDef{"corecover.cover_nodes", "count"},
		metricDef{"corecover.covers_found", "count"},
		metricDef{"corecover.verify_accept_ratio", "ratio"},
		metricDef{"corecover.rewritings", "count"},
		metricDef{"corecover.cache_hit_us", "us"},
		metricDef{"corecover.cache_hit_ratio", "ratio"},
		metricDef{"corecover.cache_evictions", "count"},
		metricDef{"corecover.compile_ms", "ms"},
		metricDef{"corecover.add_view_ms", "ms"},
		metricDef{"corecover.remove_view_ms", "ms"},
		metricDef{"cost.candidates", "count"},
		metricDef{"cost.order_ms", "ms"},
		metricDef{"cost.order_share", "ratio"},
	)
	for _, c := range planClasses {
		defs = append(defs, metricDef{"cost.order_ms." + c, "ms"})
	}
	return append(defs,
		metricDef{"cost.opt_states", "count"},
		metricDef{"cost.join_steps", "count"},
		metricDef{"cost.join_rows", "count"},
		metricDef{"cost.ir_cache_hit_ratio", "ratio"},
		metricDef{"cost.filters_ms", "ms"},
		metricDef{"cost.filter_candidates", "count"},
		metricDef{"cost.execute_ms", "ms"},
		metricDef{"engine.join_probe_rows", "count"},
		metricDef{"engine.peak_resident_rows", "count"},
		metricDef{"engine.rows_per_s", "1/s"},
		metricDef{"engine.materialize_ms", "ms"},
		metricDef{"service.plan_us.hit", "us"},
		metricDef{"service.plan_us.miss", "us"},
		metricDef{"service.encode_us", "us"},
		metricDef{"service.response_bytes", "bytes"},
		metricDef{"service.http_overhead_us", "us"},
		metricDef{"e2e.op_p99_ms", "ms"},
		metricDef{"e2e.ops_per_s.2clients", "1/s"},
		metricDef{"e2e.op_p99_ms.2clients", "ms"},
		metricDef{"e2e.mutate_p50_ms", "ms"},
		metricDef{"e2e.alloc_kb_per_op", "kB"},
		metricDef{"e2e.plan_cost_mean", "count"},
		metricDef{"e2e.exec_peak_rows_mean", "count"},
		metricDef{"bench.stage_sum_share", "ratio"},
		metricDef{"bench.replay_ratio", "ratio"},
		metricDef{"bench.trace_overhead_share", "ratio"},
	)
}()

// totals is a run's untraced rounds. Every end-to-end metric is the
// median over the rounds of the round's own value: the machines this
// runs on slow down for seconds at a time, and a median over rounds
// ignores a slow minority of them where a pooled figure would not.
type totals struct {
	rounds int
	wall   time.Duration
	failed int
	lat    []time.Duration // every op of every round, for the ungated tail
	// one entry per round
	setupS, opsPerS, p50ms, p90ms, cpuMsPerOp, rssKB []float64
}

func (t *totals) add(r *roundResult) {
	t.rounds++
	t.wall += r.wall
	t.failed += r.failed
	t.lat = append(t.lat, r.lat...)
	sorted := sortedCopy(r.lat)
	// Ops that failed verification count as attempted, never as work done.
	ok := float64(len(r.lat) - r.failed)
	t.setupS = append(t.setupS, r.setup.Seconds())
	t.opsPerS = append(t.opsPerS, ok/r.wall.Seconds())
	t.p50ms = append(t.p50ms, ms(quantile(sorted, 0.5)))
	t.p90ms = append(t.p90ms, ms(quantile(sorted, 0.9)))
	t.cpuMsPerOp = append(t.cpuMsPerOp, ms(r.cpu)/max(ok, 1))
	if r.rssKB > 0 {
		t.rssKB = append(t.rssKB, float64(r.rssKB))
	}
}

func median(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// endToEndValues computes the end-to-end metrics.
func (t *totals) endToEndValues() (map[string]float64, error) {
	// Peak RSS of the process that is the system under test: a planserve
	// child per round, or this process, harness included.
	rssKB := 0.0
	if len(t.rssKB) > 0 {
		rssKB = median(t.rssKB)
	} else {
		self, err := peakRSSKB("self")
		if err != nil {
			return nil, err
		}
		rssKB = float64(self)
	}
	return map[string]float64{
		"setup_s":       median(t.setupS),
		"ops_per_s":     median(t.opsPerS),
		"op_p50_ms":     median(t.p50ms),
		"op_p90_ms":     median(t.p90ms),
		"cpu_ms_per_op": median(t.cpuMsPerOp),
		"rss_peak_mb":   rssKB / 1024,
	}, nil
}

// perLayerValues computes the per-layer metrics from the accumulators
// the untraced rounds and the replay filled.
func perLayerValues(e *env, t *totals) map[string]float64 {
	s := e.layers
	us := func(num, den string) float64 { return s.ratio(num, den) / 1e3 }
	msPer := func(num, den string) float64 { return s.ratio(num, den) / 1e6 }
	share := func(yes, no string) float64 {
		if s[yes]+s[no] == 0 {
			return 0
		}
		return s[yes] / (s[yes] + s[no])
	}
	v := map[string]float64{
		"cq.parse_us":                     us("cq.parse", "cq.ops"),
		"cq.canon_key_us":                 us("cq.canon_key", "cq.ops"),
		"cq.render_us":                    us("cq.render", "cq.render.n"),
		"containment.minimize_us":         us("containment.minimize", "probe.ops"),
		"containment.hom_searches":        s.ratio("ctr.hom_searches", "runs"),
		"containment.hom_backtracks":      s.ratio("ctr.hom_backtracks", "runs"),
		"containment.hom_cache_hit_ratio": share("ctr.hom_cache_hits", "ctr.hom_cache_misses"),
		"views.tuples_us":                 us("views.tuples", "probe.ops"),
		"views.tuples_count":              s.ratio("views.tuples.count", "probe.ops"),
		"corecover.gmr_us":                us("corecover.gmr", "corecover.gmr.n"),
		"corecover.star_us":               us("corecover.star", "corecover.star.n"),
		"corecover.cover_nodes":           s.ratio("ctr.cover_nodes", "runs"),
		"corecover.covers_found":          s.ratio("ctr.covers_found", "runs"),
		"corecover.verify_accept_ratio":   s.ratio("ctr.verify_accepted", "ctr.verify_checks"),
		"corecover.rewritings":            s.ratio("ctr.rewritings", "runs"),
		"corecover.cache_hit_us":          us("corecover.cache_hit", "corecover.cache_hit.n"),
		"corecover.cache_hit_ratio":       s.ratio("cache.hits", "cache.asks"),
		"corecover.cache_evictions":       s.ratio("cache.evictions", "cache.rounds"),
		"corecover.compile_ms":            msPer("corecover.compile", "corecover.compile.n"),
		"corecover.add_view_ms":           msPer("corecover.add_view", "corecover.mutations"),
		"corecover.remove_view_ms":        msPer("corecover.remove_view", "corecover.mutations"),
		"cost.candidates":                 s.ratio("cost.candidates", "cost.ops"),
		"cost.order_ms":                   msPer("cost.order", "cost.ops"),
		"cost.order_share":                s.ratio("cost.order", "replay.wall"),
		"cost.opt_states":                 s.ratio("ctr.opt_states", "cost.ops"),
		"cost.join_steps":                 s.ratio("ctr.join_steps", "runs"),
		"cost.join_rows":                  s.ratio("ctr.join_rows", "runs"),
		"cost.ir_cache_hit_ratio":         share("ctr.ir_cache_hits", "ctr.ir_cache_misses"),
		"cost.filters_ms":                 msPer("cost.filters", "cost.ops"),
		"cost.filter_candidates":          s.ratio("ctr.filter_candidates", "cost.ops"),
		"cost.execute_ms":                 msPer("cost.execute", "cost.execute.n"),
		"engine.join_probe_rows":          s.ratio("ctr.join_probe_rows", "runs"),
		"engine.peak_resident_rows":       s.ratio("engine.peak_rows", "cost.execute.n"),
		"engine.materialize_ms":           msPer("engine.materialize", "engine.materialize.n"),
		"service.plan_us.hit":             us("service.plan.hit", "service.plan.hit.n"),
		"service.plan_us.miss":            us("service.plan.miss", "service.plan.miss.n"),
		"service.encode_us":               us("service.encode", "service.ops"),
		"service.response_bytes":          s.ratio("service.bytes", "service.ops"),
		"service.http_overhead_us":        us("http.overhead", "cache.asks"),
		"e2e.op_p99_ms":                   ms(quantile(t.lat, 0.99)), // t.lat is sorted by now
		"e2e.ops_per_s.2clients":          s.ratio("two.ops", "two.wall") * 1e9,
		"e2e.op_p99_ms.2clients":          ms(quantile(sortedCopy(e.twoLat), 0.99)),
		"e2e.mutate_p50_ms":               ms(quantile(sortedCopy(e.mutateLat), 0.5)),
		"e2e.alloc_kb_per_op":             s["alloc.bytes"] / 1024 / float64(len(t.lat)),
		"e2e.plan_cost_mean":              s.ratio("plan.cost", "exec.ops"),
		"e2e.exec_peak_rows_mean":         s.ratio("exec.peak_rows", "exec.ops"),
		"bench.stage_sum_share":           s.ratio("replay.stages", "replay.wall"),
	}
	for _, p := range corecoverPhases {
		v["corecover.phase."+p+"_us"] = us("phase."+p, "runs")
	}
	for _, c := range planClasses {
		v["cost.order_ms."+c] = msPer("cost.order."+c, "ops."+c)
	}
	// Rows the engine joined per second it was driven: ordering and
	// filter selection cost plans by executing them.
	if busy := s["cost.order"] + s["cost.filters"] + s["cost.execute"]; busy > 0 {
		v["engine.rows_per_s"] = s["ctr.join_rows"] / (busy / 1e9)
	}
	if len(e.replayLat) > 0 && len(t.lat) > 0 {
		v["bench.replay_ratio"] = float64(quantile(sortedCopy(e.replayLat), 0.5)) / float64(quantile(t.lat, 0.5))
		var untraced, traced time.Duration
		for _, d := range t.lat {
			untraced += d
		}
		for _, d := range e.replayLat {
			traced += d
		}
		perOp := func(sum time.Duration, n int) float64 { return float64(sum) / float64(n) }
		v["bench.trace_overhead_share"] = perOp(traced, len(e.replayLat))/perOp(untraced, len(t.lat)) - 1
	}
	return v
}
