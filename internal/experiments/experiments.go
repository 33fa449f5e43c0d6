// Package experiments regenerates every figure of the paper's Section 7:
// for star and chain queries it sweeps the number of views and measures
// (a) the wall-clock time for CoreCover to produce all globally-minimal
// rewritings (Figures 6 and 8) and (b) the number of view equivalence
// classes, view tuples, and representative view tuples (Figures 7 and 9).
// Queries without rewritings are skipped, 40 queries are averaged per
// point, and the timed region includes equivalence-class grouping —
// matching the paper's protocol.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"viewplan"
	"viewplan/internal/corecover"
	"viewplan/internal/cost"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
	"viewplan/internal/views"
	"viewplan/internal/workload"
)

// Point is one x-axis position of a sweep with averaged measurements.
type Point struct {
	// NumViews is the x coordinate.
	NumViews int `json:"num_views"`
	// AvgMillis is the mean CoreCover time (all GMRs) over the queries
	// that had rewritings.
	AvgMillis float64 `json:"avg_ms"`
	// MaxMillis is the worst query's time.
	MaxMillis float64 `json:"max_ms"`
	// P50Millis, P90Millis and P99Millis are latency percentiles of the
	// per-query CoreCover times at this point, estimated from a
	// log-bucketed histogram (relative error ≤ 6.25%; see obs.Histogram).
	// The mean of a sweep point hides stragglers; the paper's max curve
	// shows only the single worst query — the percentiles sit between.
	P50Millis float64 `json:"p50_ms"`
	P90Millis float64 `json:"p90_ms"`
	P99Millis float64 `json:"p99_ms"`
	// AvgViewClasses is the mean number of view equivalence classes
	// (Figures 7(a)/9(a), "number of representative views").
	AvgViewClasses float64 `json:"avg_view_classes"`
	// AvgAllTuples is the mean number of view tuples computed from all
	// views (Figures 7(b)/9(b), "all view tuples").
	AvgAllTuples float64 `json:"avg_all_tuples"`
	// AvgRepTuples is the mean number of representative view tuples
	// (distinct tuple-core classes).
	AvgRepTuples float64 `json:"avg_rep_tuples"`
	// AvgGMRs and AvgGMRSize describe the rewritings found.
	AvgGMRs    float64 `json:"avg_gmrs"`
	AvgGMRSize float64 `json:"avg_gmr_size"`
	// WithRewriting counts the queries that had a rewriting, out of
	// Queries attempted.
	WithRewriting int `json:"with_rewriting"`
	Queries       int `json:"queries"`
	// Counters are the summed planner work counters over the queries with
	// rewritings (SweepConfig.Trace only; nil otherwise). Keys are the
	// obs counter names, e.g. "hom_searches", "cover_nodes".
	Counters map[string]int64 `json:"counters,omitempty"`
	// PhaseNanos are the summed per-phase wall times over the same
	// queries, flattened by phase name (SweepConfig.Trace only). Each
	// phase's time includes its children; recursing phases count nested
	// invocations at every level, so these columns don't sum to wall
	// time — PhaseSelfNanos does.
	PhaseNanos map[string]int64 `json:"phase_nanos,omitempty"`
	// PhaseSelfNanos are the summed per-phase self times (children
	// excluded); they telescope to the total observed time.
	PhaseSelfNanos map[string]int64 `json:"phase_self_nanos,omitempty"`
	// AvgPlanMillis is the mean end-to-end PlanQuery time under
	// SweepConfig.CostModel (zero when cost planning is off).
	AvgPlanMillis float64 `json:"avg_plan_ms,omitempty"`
	// MaxPlanMillis is the worst query's planning time.
	MaxPlanMillis float64 `json:"max_plan_ms,omitempty"`
	// PlanP50Millis, PlanP90Millis and PlanP99Millis are the planning
	// latency percentiles, like P50Millis for the CostModel runs.
	PlanP50Millis float64 `json:"plan_p50_ms,omitempty"`
	PlanP90Millis float64 `json:"plan_p90_ms,omitempty"`
	PlanP99Millis float64 `json:"plan_p99_ms,omitempty"`
	// AvgPlanCost is the mean chosen-plan cost under the cost model.
	AvgPlanCost float64 `json:"avg_plan_cost,omitempty"`
	// PlanCounters / PlanPhaseNanos / PlanPhaseSelfNanos aggregate the
	// cost-planning runs' observability snapshots (engine counters such
	// as join_probe_rows, ir_cache_hits live here; SweepConfig.Trace and
	// CostModel only).
	PlanCounters       map[string]int64 `json:"plan_counters,omitempty"`
	PlanPhaseNanos     map[string]int64 `json:"plan_phase_nanos,omitempty"`
	PlanPhaseSelfNanos map[string]int64 `json:"plan_phase_self_nanos,omitempty"`
}

// SweepConfig parameterizes one figure-generating sweep.
type SweepConfig struct {
	Shape workload.Shape
	// Nondistinguished is 0 for the (a) figures, 1 for the (b) variants.
	Nondistinguished int
	// ViewCounts is the x axis, e.g. 100, 200, ..., 1000.
	ViewCounts []int
	// QueriesPerPoint is the number of random queries averaged per x
	// (paper: 40).
	QueriesPerPoint int
	// QuerySubgoals is the query body size (paper: 8).
	QuerySubgoals int
	// Seed offsets the deterministic instance seeds.
	Seed int64
	// Options forwards CoreCover options (used by the grouping ablation).
	Options corecover.Options
	// Parallelism runs that many queries concurrently per point (0 or 1 =
	// sequential). Instances are seeded deterministically, so aggregates
	// are identical to a sequential run; per-query wall times are still
	// measured individually. Note that with Trace set and Parallelism > 1
	// the process-global counters (hom_searches, homs_found) may be
	// attributed to the wrong concurrent query; their sums stay exact.
	Parallelism int
	// Trace gives every query its own obs.Tracer and aggregates the work
	// counters and phase times onto each Point (Counters, PhaseNanos).
	// Tracing adds a little overhead to the timed region, so leave it off
	// when reproducing the paper's timing figures.
	Trace bool
	// CostModel, when nonzero (cost.M2 or cost.M3), additionally runs the
	// one-shot planner per query that has a rewriting: base relations are
	// filled with DataRows synthetic rows each over a DataDomain-value
	// domain, views are materialized, and viewplan.PlanQuery is timed
	// end to end (rewriting generation + the engine-backed cost search).
	// The M2/M3 sweep of the Figure 6(a) workload in BENCH_engine.json is
	// produced this way. Planning measurements land in the Point's
	// AvgPlanMillis/AvgPlanCost and, with Trace, PlanCounters and
	// PlanPhaseNanos.
	CostModel cost.Model
	// Execute also executes each chosen plan after a CostModel run.
	// Execution residency then lands in the process histograms
	// (peak_resident_rows, streamed_rows_per_join), visible through
	// Registry and benchviews -metrics / -registry.
	Execute bool
	// DataRows and DataDomain size the synthetic data for CostModel runs
	// (default 100 rows per base relation over 100 distinct values, which
	// keeps star-join fan-out near 1).
	DataRows   int
	DataDomain int
	// Registry, when non-nil, accumulates the sweep into process-lifetime
	// telemetry: every CoreCover run's latency lands in the
	// corecover_latency_ns histogram (with its counters and phase times
	// when Trace is on), and CostModel runs record through
	// PlanRequest.Registry (requests, plan_latency_ns,
	// rewritings_considered). Serve it with obs.Handler to watch a sweep
	// live (`benchviews -registry`).
	Registry *obs.Registry
}

// DefaultViewCounts is the paper's x axis: 100 to 1000 views.
func DefaultViewCounts() []int {
	out := make([]int, 0, 10)
	for n := 100; n <= 1000; n += 100 {
		out = append(out, n)
	}
	return out
}

// Normalize fills zero fields with the paper's protocol values.
func (c SweepConfig) Normalize() SweepConfig {
	if len(c.ViewCounts) == 0 {
		c.ViewCounts = DefaultViewCounts()
	}
	if c.QueriesPerPoint == 0 {
		c.QueriesPerPoint = 40
	}
	if c.QuerySubgoals == 0 {
		c.QuerySubgoals = 8
	}
	if c.DataRows == 0 {
		c.DataRows = 100
	}
	if c.DataDomain == 0 {
		c.DataDomain = 100
	}
	return c
}

// queryResult holds one query's measurements for aggregation.
type queryResult struct {
	ok                     bool
	ms                     float64
	ns                     int64
	viewClasses, repTuples int
	gmrs, gmrSize          int
	allTuples              int
	stats                  *obs.Snapshot
	planned                bool
	planMs                 float64
	planNs                 int64
	planCost               int
	planStats              *obs.Snapshot
	err                    error
}

// Run executes the sweep and returns one Point per view count.
func Run(cfg SweepConfig) ([]Point, error) {
	cfg = cfg.Normalize()
	out := make([]Point, 0, len(cfg.ViewCounts))
	for xi, nv := range cfg.ViewCounts {
		pt := Point{NumViews: nv, Queries: cfg.QueriesPerPoint}
		results := make([]queryResult, cfg.QueriesPerPoint)
		runOne := func(qi int) queryResult {
			inst, err := workload.Generate(workload.Config{
				Shape:            cfg.Shape,
				QuerySubgoals:    cfg.QuerySubgoals,
				NumViews:         nv,
				Nondistinguished: cfg.Nondistinguished,
				Seed:             cfg.Seed + int64(xi*10000+qi),
			})
			if err != nil {
				return queryResult{err: err}
			}
			opts := cfg.Options
			if cfg.Trace {
				opts.Tracer = obs.New()
			}
			start := time.Now() //viewplan:nondet-ok wall time is reported to humans in the experiment tables and never feeds back into planning
			res, err := corecover.CoreCover(inst.Query, inst.Views, opts)
			if err != nil {
				return queryResult{err: err}
			}
			elapsed := time.Since(start) //viewplan:nondet-ok wall time is reported to humans in the experiment tables and never feeds back into planning
			if cfg.Registry != nil {
				cfg.Registry.RecordLatency(obs.HistCoreCoverLatency, elapsed)
				cfg.Registry.Absorb(res.PlanningStats)
			}
			if len(res.Rewritings) == 0 {
				return queryResult{} // the paper ignores queries without rewritings
			}
			qr := queryResult{
				ok:          true,
				ms:          float64(elapsed.Microseconds()) / 1000.0,
				ns:          elapsed.Nanoseconds(),
				viewClasses: len(res.ViewClasses),
				repTuples:   countNonEmptyClasses(res),
				gmrs:        len(res.Rewritings),
				gmrSize:     res.GMRSize(),
				// "All view tuples" counts tuples from the full, ungrouped
				// view set (the upper curve of Figures 7(b)/9(b)).
				allTuples: len(views.ComputeTuples(res.MinimalQuery, inst.Views, nil)),
				stats:     res.PlanningStats,
			}
			if cfg.CostModel != 0 {
				pr, err := planOne(cfg, inst, qi)
				if err != nil {
					return queryResult{err: err}
				}
				qr.planned = pr.planned
				qr.planMs, qr.planNs = pr.planMs, pr.planNs
				qr.planCost, qr.planStats = pr.planCost, pr.planStats
			}
			return qr
		}
		if cfg.Parallelism > 1 {
			sem := make(chan struct{}, cfg.Parallelism)
			var wg sync.WaitGroup
			for qi := 0; qi < cfg.QueriesPerPoint; qi++ {
				wg.Add(1)
				go func(qi int) {
					defer wg.Done()
					sem <- struct{}{}
					results[qi] = runOne(qi)
					<-sem
				}(qi)
			}
			wg.Wait()
		} else {
			for qi := 0; qi < cfg.QueriesPerPoint; qi++ {
				results[qi] = runOne(qi)
			}
		}
		planned := 0
		// Per-point latency histograms back the percentile columns; the
		// log-bucketed estimate keeps them cheap at any QueriesPerPoint.
		latency, planLatency := obs.NewHistogram(), obs.NewHistogram()
		for _, r := range results {
			if r.err != nil {
				return nil, r.err
			}
			if !r.ok {
				continue
			}
			pt.WithRewriting++
			pt.AvgMillis += r.ms
			latency.Observe(r.ns)
			if r.ms > pt.MaxMillis {
				pt.MaxMillis = r.ms
			}
			pt.AvgViewClasses += float64(r.viewClasses)
			pt.AvgRepTuples += float64(r.repTuples)
			pt.AvgGMRs += float64(r.gmrs)
			pt.AvgGMRSize += float64(r.gmrSize)
			pt.AvgAllTuples += float64(r.allTuples)
			pt.absorb(r.stats)
			if r.planned {
				planned++
				pt.AvgPlanMillis += r.planMs
				planLatency.Observe(r.planNs)
				if r.planMs > pt.MaxPlanMillis {
					pt.MaxPlanMillis = r.planMs
				}
				pt.AvgPlanCost += float64(r.planCost)
				pt.absorbPlan(r.planStats)
			}
		}
		if pt.WithRewriting > 0 {
			n := float64(pt.WithRewriting)
			pt.AvgMillis /= n
			pt.AvgViewClasses /= n
			pt.AvgRepTuples /= n
			pt.AvgAllTuples /= n
			pt.AvgGMRs /= n
			pt.AvgGMRSize /= n
			ls := latency.Snapshot()
			pt.P50Millis = float64(ls.P50) / 1e6
			pt.P90Millis = float64(ls.P90) / 1e6
			pt.P99Millis = float64(ls.P99) / 1e6
		}
		if planned > 0 {
			pt.AvgPlanMillis /= float64(planned)
			pt.AvgPlanCost /= float64(planned)
			ps := planLatency.Snapshot()
			pt.PlanP50Millis = float64(ps.P50) / 1e6
			pt.PlanP90Millis = float64(ps.P90) / 1e6
			pt.PlanP99Millis = float64(ps.P99) / 1e6
		}
		out = append(out, pt)
	}
	return out, nil
}

// planOne materializes the instance's views over synthetic base data and
// times the one-shot planner under the sweep's cost model. The data is
// seeded per query, so reruns are deterministic.
func planOne(cfg SweepConfig, inst *workload.Instance, qi int) (queryResult, error) {
	db := engine.NewDatabase()
	gen := engine.NewDataGen(cfg.Seed+int64(qi)+7919, cfg.DataDomain)
	gen.FillForQuery(db, inst.Query, cfg.DataRows)
	if err := db.MaterializeViews(inst.Views); err != nil {
		return queryResult{}, err
	}
	req := viewplan.PlanRequest{
		Model:         cfg.CostModel,
		MaxRewritings: cfg.Options.MaxRewritings,
		Registry:      cfg.Registry,
		Execute:       cfg.Execute,
	}
	if cfg.Trace {
		req.Tracer = obs.New()
	}
	start := time.Now() //viewplan:nondet-ok wall time is reported to humans in the experiment tables and never feeds back into planning
	res, err := viewplan.PlanQuery(db, inst.Query, inst.Views, req)
	if err != nil {
		return queryResult{}, err
	}
	elapsed := time.Since(start) //viewplan:nondet-ok wall time is reported to humans in the experiment tables and never feeds back into planning
	if res == nil {
		return queryResult{}, nil
	}
	return queryResult{
		planned:   true,
		planMs:    float64(elapsed.Microseconds()) / 1000.0,
		planNs:    elapsed.Nanoseconds(),
		planCost:  res.Cost,
		planStats: res.Stats,
	}, nil
}

// absorb folds one query's observability snapshot into the point's
// counter and phase-time sums.
func (pt *Point) absorb(s *obs.Snapshot) {
	pt.Counters, pt.PhaseNanos, pt.PhaseSelfNanos =
		absorbInto(pt.Counters, pt.PhaseNanos, pt.PhaseSelfNanos, s)
}

// absorbPlan is absorb for the cost-planning snapshot.
func (pt *Point) absorbPlan(s *obs.Snapshot) {
	pt.PlanCounters, pt.PlanPhaseNanos, pt.PlanPhaseSelfNanos =
		absorbInto(pt.PlanCounters, pt.PlanPhaseNanos, pt.PlanPhaseSelfNanos, s)
}

func absorbInto(counters, phases, selfs map[string]int64, s *obs.Snapshot) (map[string]int64, map[string]int64, map[string]int64) {
	if s == nil {
		return counters, phases, selfs
	}
	if counters == nil {
		counters = make(map[string]int64)
		phases = make(map[string]int64)
		selfs = make(map[string]int64)
	}
	for name, v := range s.Counters {
		counters[name] += v
	}
	var walk func(ps []obs.PhaseStats)
	walk = func(ps []obs.PhaseStats) {
		for _, p := range ps {
			phases[p.Phase] += p.Nanos
			selfs[p.Phase] += p.SelfNanos
			walk(p.Children)
		}
	}
	walk(s.Phases)
	return counters, phases, selfs
}

func countNonEmptyClasses(res *corecover.Result) int {
	n := 0
	for _, c := range res.Classes {
		if !c.Core.IsEmpty() {
			n++
		}
	}
	return n
}

// Figure identifies one of the paper's experimental figures.
type Figure string

// The eight experimental figures of Section 7.
const (
	Fig6a Figure = "6a" // star, all distinguished: time for all GMRs
	Fig6b Figure = "6b" // star, 1 nondistinguished: time for all GMRs
	Fig7a Figure = "7a" // star: view equivalence classes
	Fig7b Figure = "7b" // star: view tuples vs representative view tuples
	Fig8a Figure = "8a" // chain, all distinguished: time for all GMRs
	Fig8b Figure = "8b" // chain, 1 nondistinguished: time for all GMRs
	Fig9a Figure = "9a" // chain: view equivalence classes
	Fig9b Figure = "9b" // chain: view tuples vs representative view tuples
)

// AllFigures lists the experimental figures in paper order.
func AllFigures() []Figure {
	return []Figure{Fig6a, Fig6b, Fig7a, Fig7b, Fig8a, Fig8b, Fig9a, Fig9b}
}

// ConfigFor returns the sweep configuration reproducing a figure. Several
// figures share a sweep (timing and class counts come from the same runs,
// as in the paper); the figure only selects which columns to print.
func ConfigFor(fig Figure) (SweepConfig, error) {
	base := SweepConfig{}.Normalize()
	switch fig {
	case Fig6a, Fig7a, Fig7b:
		base.Shape = workload.Star
	case Fig6b:
		base.Shape = workload.Star
		base.Nondistinguished = 1
	case Fig8a, Fig9a, Fig9b:
		base.Shape = workload.Chain
	case Fig8b:
		base.Shape = workload.Chain
		base.Nondistinguished = 1
	default:
		return SweepConfig{}, fmt.Errorf("experiments: unknown figure %q", fig)
	}
	return base, nil
}

// TraceRun plans one representative instance of the sweep with span
// capture on and writes the run as a Chrome trace-event file (load it
// at ui.perfetto.dev or chrome://tracing). The first seeded instance
// with a rewriting is used: its CoreCover run is always traced, and
// when cfg.CostModel is set the end-to-end PlanQuery over materialized
// synthetic views is traced as a second thread.
func TraceRun(cfg SweepConfig, w io.Writer) error {
	cfg = cfg.Normalize()
	nv := cfg.ViewCounts[0]
	for qi := 0; qi < cfg.QueriesPerPoint; qi++ {
		inst, err := workload.Generate(workload.Config{
			Shape:            cfg.Shape,
			QuerySubgoals:    cfg.QuerySubgoals,
			NumViews:         nv,
			Nondistinguished: cfg.Nondistinguished,
			Seed:             cfg.Seed + int64(qi),
		})
		if err != nil {
			return err
		}
		tr := obs.New()
		tr.CaptureEvents()
		opts := cfg.Options
		opts.Tracer = tr
		res, err := corecover.CoreCover(inst.Query, inst.Views, opts)
		if err != nil {
			return err
		}
		if len(res.Rewritings) == 0 {
			continue
		}
		if cfg.Registry != nil {
			cfg.Registry.Absorb(tr.Snapshot())
		}
		tracers := []*obs.Tracer{tr}
		if cfg.CostModel != 0 {
			db := engine.NewDatabase()
			gen := engine.NewDataGen(cfg.Seed+int64(qi)+7919, cfg.DataDomain)
			gen.FillForQuery(db, inst.Query, cfg.DataRows)
			if err := db.MaterializeViews(inst.Views); err != nil {
				return err
			}
			ptr := obs.New()
			ptr.CaptureEvents()
			req := viewplan.PlanRequest{
				Model:         cfg.CostModel,
				MaxRewritings: cfg.Options.MaxRewritings,
				Tracer:        ptr,
				Registry:      cfg.Registry,
			}
			if _, err := viewplan.PlanQuery(db, inst.Query, inst.Views, req); err != nil {
				return err
			}
			tracers = append(tracers, ptr)
		}
		return obs.WriteTraceEvents(w, tracers...)
	}
	return fmt.Errorf("experiments: no instance with a rewriting at %d views (shape %s)", nv, cfg.Shape)
}

// FigureMetrics is one figure's sweep in the machine-readable report
// written by `benchviews -metrics FILE` (the BENCH_*.json trajectory
// files): the sweep's identity plus every Point with its counter and
// phase-time aggregates.
type FigureMetrics struct {
	Figure           Figure  `json:"figure"`
	Shape            string  `json:"shape"`
	Nondistinguished int     `json:"nondistinguished"`
	QueriesPerPoint  int     `json:"queries_per_point"`
	Points           []Point `json:"points"`
}

// MetricsSchema is the version of the -metrics JSON layout. Schema 1
// was a bare []FigureMetrics array; schema 2 wraps it in an object with
// a version tag, adds latency percentiles and phase self-times to every
// Point, and can carry a registry snapshot of the whole run.
const MetricsSchema = 2

// MetricsReport is the top-level -metrics document (schema 2).
type MetricsReport struct {
	// Schema is MetricsSchema; consumers should reject versions they
	// don't know.
	Schema int `json:"schema"`
	// Figures holds one entry per figure swept, in run order.
	Figures []FigureMetrics `json:"figures"`
	// Registry is the process-lifetime telemetry snapshot of the run,
	// when a registry was attached (SweepConfig.Registry).
	Registry *obs.RegistrySnapshot `json:"registry,omitempty"`
}

// WriteMetrics renders the report as indented JSON (schema 2).
func WriteMetrics(w io.Writer, report []FigureMetrics) error {
	return WriteMetricsReport(w, &MetricsReport{Figures: report})
}

// WriteMetricsReport renders a full metrics document, stamping the
// schema version.
func WriteMetricsReport(w io.Writer, report *MetricsReport) error {
	report.Schema = MetricsSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// RenderPlanning writes the cost-planning columns of a CostModel sweep as
// an aligned text table: per view count, the mean/max end-to-end planning
// time and the mean chosen-plan cost.
func RenderPlanning(w io.Writer, model cost.Model, points []Point) {
	fmt.Fprintf(w, "# %s planning over materialized views (ms)\n", model)
	fmt.Fprintf(w, "%-10s %-14s %-14s %-14s\n", "views", "avg_plan_ms", "max_plan_ms", "avg_plan_cost")
	for _, p := range points {
		fmt.Fprintf(w, "%-10d %-14.3f %-14.3f %-14.1f\n", p.NumViews, p.AvgPlanMillis, p.MaxPlanMillis, p.AvgPlanCost)
	}
}

// Render writes a figure's series as an aligned text table (and CSV-ready
// columns) to w.
func Render(w io.Writer, fig Figure, points []Point) {
	switch fig {
	case Fig6a, Fig6b, Fig8a, Fig8b:
		fmt.Fprintf(w, "# Figure %s: time of generating all GMRs (ms)\n", fig)
		fmt.Fprintf(w, "%-10s %-12s %-12s %-14s\n", "views", "avg_ms", "max_ms", "with_rewriting")
		for _, p := range points {
			fmt.Fprintf(w, "%-10d %-12.3f %-12.3f %d/%d\n", p.NumViews, p.AvgMillis, p.MaxMillis, p.WithRewriting, p.Queries)
		}
	case Fig7a, Fig9a:
		fmt.Fprintf(w, "# Figure %s: number of view equivalence classes\n", fig)
		fmt.Fprintf(w, "%-10s %-20s\n", "views", "representative_views")
		for _, p := range points {
			fmt.Fprintf(w, "%-10d %-20.1f\n", p.NumViews, p.AvgViewClasses)
		}
	case Fig7b, Fig9b:
		fmt.Fprintf(w, "# Figure %s: view tuples vs representative view tuples\n", fig)
		fmt.Fprintf(w, "%-10s %-16s %-24s\n", "views", "all_view_tuples", "representative_tuples")
		for _, p := range points {
			fmt.Fprintf(w, "%-10d %-16.1f %-24.1f\n", p.NumViews, p.AvgAllTuples, p.AvgRepTuples)
		}
	}
}
