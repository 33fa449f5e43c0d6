// Command benchviews regenerates the experimental figures of the paper's
// Section 7. Each figure is a sweep over the number of views for star or
// chain queries, averaging 40 random queries per point, exactly following
// the paper's protocol (queries without rewritings are skipped; timing
// includes equivalence-class grouping).
//
// Usage:
//
//	benchviews -fig 6a              # one figure
//	benchviews -fig all             # every figure (paper scale; minutes)
//	benchviews -fig 8b -queries 10 -views 100,300,500
//	benchviews -fig 6a -nogroup     # ablation: grouping disabled
//	benchviews -fig 6a -jobs 8      # sweep 8 queries concurrently
//	benchviews -fig 6a -registry localhost:8080   # live telemetry: GET /metrics
//	benchviews -fig 6a -traceout trace.json       # Perfetto trace of one run
//
// -jobs overlaps whole queries to finish the sweep faster; each query
// is still planned sequentially, as the paper does.
//
// Output is an aligned text table per figure, suitable for plotting.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"viewplan/internal/corecover"
	"viewplan/internal/cost"
	"viewplan/internal/experiments"
	"viewplan/internal/obs"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 6a, 6b, 7a, 7b, 8a, 8b, 9a, 9b, or all")
		queries  = flag.Int("queries", 0, "queries per point (default: the paper's 40)")
		viewsFl  = flag.String("views", "", "comma-separated view counts (default: 100..1000 step 100)")
		seed     = flag.Int64("seed", 1, "base random seed")
		nogroup  = flag.Bool("nogroup", false, "ablation: disable view and view-tuple equivalence-class grouping")
		subg     = flag.Int("subgoals", 0, "query subgoals (default: the paper's 8)")
		jobs     = flag.Int("jobs", 1, "queries run concurrently per point (1 = sequential); speeds the sweep up without touching per-query times")
		metrics  = flag.String("metrics", "", "write per-run planner metrics (counters, phase times) as JSON to this file")
		costFl   = flag.String("cost", "", "additionally time M2 or M3 planning per query over materialized views (engine counters then appear in -metrics)")
		execFl   = flag.Bool("exec", false, "also execute each chosen plan (needs -cost); peak_resident_rows and streamed_rows_per_join then appear in -metrics and -registry")
		capFl    = flag.Int("cap", 0, "cap the rewritings considered per query (0 = all; keeps -cost sweeps bounded)")
		rows     = flag.Int("rows", 0, "synthetic rows per base relation for -cost runs (default 100)")
		domain   = flag.Int("domain", 0, "distinct values per column domain for -cost runs (default 100)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (post-sweep, after GC) to this file")
		registry = flag.String("registry", "", "serve live sweep telemetry (counters, phase times, latency histograms) as JSON on this address, e.g. localhost:8080; GET /metrics")
		traceOut = flag.String("traceout", "", "write a Chrome trace-event file (Perfetto-loadable) of one representative traced run of the first figure's workload")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchviews:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchviews:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(*fig, *queries, *viewsFl, *seed, *nogroup, *subg, *jobs, *metrics, *costFl, *execFl, *rows, *domain, *capFl, *registry, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchviews:", err)
		os.Exit(1)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchviews:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchviews:", err)
			os.Exit(1)
		}
		f.Close()
	}
}

func run(fig string, queries int, viewsFl string, seed int64, nogroup bool, subgoals, jobs int, metricsFile, costFl string, exec bool, rows, domain, cap int, registryAddr, traceOut string) error {
	var costModel cost.Model
	switch strings.ToLower(costFl) {
	case "":
	case "m2":
		costModel = cost.M2
	case "m3":
		costModel = cost.M3
	default:
		return fmt.Errorf("bad -cost %q: want m2 or m3", costFl)
	}
	if exec && costModel == 0 {
		return fmt.Errorf("-exec needs -cost (there is no chosen plan to execute without a cost model)")
	}
	var figures []experiments.Figure
	if fig == "all" {
		figures = experiments.AllFigures()
	} else {
		figures = []experiments.Figure{experiments.Figure(fig)}
	}

	var viewCounts []int
	if viewsFl != "" {
		for _, part := range strings.Split(viewsFl, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -views entry %q: %v", part, err)
			}
			viewCounts = append(viewCounts, n)
		}
	}

	// The process registry aggregates the whole invocation — sweeps
	// absorb into it here, and the containment/join kernels feed their
	// per-search histograms into it from below; -registry serves it
	// live, and -metrics embeds its final snapshot in the report.
	var reg *obs.Registry
	if registryAddr != "" || metricsFile != "" || traceOut != "" {
		reg = obs.Process
	}
	if registryAddr != "" {
		ln, err := net.Listen("tcp", registryAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving telemetry at http://%s/metrics\n", ln.Addr())
	}

	// Figures sharing a sweep reuse its points.
	type key struct {
		shape   string
		nondist int
	}
	cache := make(map[key][]experiments.Point)
	var report []experiments.FigureMetrics
	var traceCfg *experiments.SweepConfig
	for _, f := range figures {
		cfg, err := experiments.ConfigFor(f)
		if err != nil {
			return err
		}
		if queries > 0 {
			cfg.QueriesPerPoint = queries
		}
		if len(viewCounts) > 0 {
			cfg.ViewCounts = viewCounts
		}
		if subgoals > 0 {
			cfg.QuerySubgoals = subgoals
		}
		cfg.Seed = seed
		cfg.Parallelism = jobs
		cfg.Trace = metricsFile != ""
		cfg.CostModel = costModel
		cfg.Execute = exec
		cfg.DataRows = rows
		cfg.DataDomain = domain
		if nogroup {
			cfg.Options = corecover.Options{DisableViewGrouping: true, DisableTupleGrouping: true}
		}
		cfg.Options.MaxRewritings = cap
		cfg.Registry = reg
		if traceCfg == nil {
			c := cfg
			traceCfg = &c
		}
		k := key{cfg.Shape.String(), cfg.Nondistinguished}
		pts, ok := cache[k]
		if !ok {
			fmt.Fprintf(os.Stderr, "running %s sweep (nondistinguished=%d, %d queries/point)...\n",
				cfg.Shape, cfg.Nondistinguished, cfg.QueriesPerPoint)
			pts, err = experiments.Run(cfg)
			if err != nil {
				return err
			}
			cache[k] = pts
		}
		experiments.Render(os.Stdout, f, pts)
		if costModel != 0 {
			experiments.RenderPlanning(os.Stdout, costModel, pts)
		}
		fmt.Println()
		if metricsFile != "" {
			report = append(report, experiments.FigureMetrics{
				Figure:           f,
				Shape:            cfg.Shape.String(),
				Nondistinguished: cfg.Nondistinguished,
				QueriesPerPoint:  cfg.QueriesPerPoint,
				Points:           pts,
			})
		}
	}
	if traceOut != "" {
		if traceCfg == nil {
			return fmt.Errorf("-traceout needs at least one figure swept")
		}
		out, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := experiments.TraceRun(*traceCfg, out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open at ui.perfetto.dev)\n", traceOut)
	}
	if metricsFile != "" {
		out, err := os.Create(metricsFile)
		if err != nil {
			return err
		}
		doc := &experiments.MetricsReport{Figures: report}
		if reg != nil {
			doc.Registry = reg.Snapshot()
		}
		if err := experiments.WriteMetricsReport(out, doc); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", metricsFile)
	}
	return nil
}
