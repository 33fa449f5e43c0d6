// Package viewplan generates efficient, equivalent rewritings of
// conjunctive queries using materialized views, under the closed-world
// assumption. It is a Go implementation of Afrati, Li & Ullman,
// "Generating Efficient Plans for Queries Using Views" (SIGMOD 2001):
// the CoreCover algorithm for globally-minimal rewritings (cost model
// M1), the CoreCover* search space for size-based costs (M2), and the
// attribute-dropping renaming heuristic (M3), together with an in-memory
// relational engine that materializes views and measures plan costs on
// real data.
//
// # Quick start
//
//	q := viewplan.MustParseQuery("q(S, C) :- car(M, a), loc(a, C), part(S, M, C)")
//	vs, _ := viewplan.ParseViews(`
//	    v1(M, D, C) :- car(M, D), loc(D, C).
//	    v2(S, M, C) :- part(S, M, C).
//	`)
//	res, _ := viewplan.FindGMRs(q, vs)
//	for _, p := range res.Rewritings {
//	    fmt.Println(p) // q(S, C) :- v1(M, a, C), v2(S, M, C)
//	}
//
// # Concurrency
//
// One planning request is one sequential pass on the calling goroutine:
// minimize, view tuples (a predicate-coverage prefilter, then one pooled
// probe frame), tuple-cores, cover search, verification. There is no
// per-request worker pool and no knob for one — the measured fan-outs
// lost to the sequential pass (DESIGN.md §8) — so every entry point is
// deterministic and safe to call from many goroutines at once; run
// requests concurrently (as cmd/planserve does) to use more cores.
//
// # Observability
//
// The planner is instrumented end to end. Every Result returned by
// FindGMRs and FindMinimalRewritings carries a PlanningStats snapshot —
// hierarchical phase durations (minimize, view tuples, tuple cores,
// cover search, verification) plus work counters (view tuples
// generated, homomorphism searches, cover-search nodes, rewritings
// verified) — with no setup:
//
//	res, _ := viewplan.FindGMRs(q, vs)
//	fmt.Println(res.PlanningStats.Text())
//
// For finer control, wire a Tracer yourself: NewTracer (or
// NewTracerWithLog for structured slog trace events) into
// Options.Tracer, PlanRequest.Tracer, or Database.SetTracer (which
// also makes the M2/M3 optimizers and the join engine report). A nil
// tracer is a no-op: the ...With entry points with a zero Options
// value plan with zero instrumentation overhead.
//
// # Service
//
// For the resident deployment shape — one long-lived view world, many
// arriving queries — compile the views once into a ViewCatalog and
// attach it, with a PlanCache, to every request:
//
//	cat, _ := viewplan.CompileViews(vs, viewplan.Options{})
//	cache := viewplan.NewPlanCache(1024)
//	res, _ := viewplan.FindGMRsWith(q, nil, viewplan.Options{Catalog: cat, Cache: cache})
//
// The catalog is immutable and shared freely across goroutines;
// AddViews/RemoveView return copy-on-write successors under fresh
// generations, which the cache's keys embed, so view mutations
// invalidate without purging. Results served from the cache are
// byte-identical to cold runs (a guarantee the cache-differential
// tests pin across a corpus and across interleaved mutations).
// cmd/planserve serves this pair over HTTP/JSON with hit/miss/eviction
// counters in a Registry; the benchmark module under bench/ measures it
// over a real socket.
//
// The packages under internal/ hold the implementation: cq (conjunctive
// queries), containment (Chandra–Merlin machinery), views (expansions and
// view tuples), corecover (the paper's core), engine (execution), cost
// (M1/M2/M3 optimizers), obs (tracing and metrics), minicon/bucket/naive
// (baselines), and workload (the Section 7 query and view generators,
// whose figure shapes TestPaperFigureShapes asserts).
package viewplan

import (
	"io"
	"log/slog"
	"net/http"

	"viewplan/internal/containment"
	"viewplan/internal/corecover"
	"viewplan/internal/cost"
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
	"viewplan/internal/stats"
	"viewplan/internal/ucq"
	"viewplan/internal/views"
)

// Core logical types, re-exported for API users.
type (
	// Query is a conjunctive query h(X̄) :- g1(X̄1), ..., gk(X̄k).
	Query = cq.Query
	// Atom is a predicate applied to terms.
	Atom = cq.Atom
	// Term is a variable or constant.
	Term = cq.Term
	// Var is a query variable (upper-case initial).
	Var = cq.Var
	// Const is a constant symbol (lower-case initial or quoted).
	Const = cq.Const
	// Subst is a mapping from variables to terms (also used for
	// containment-mapping witnesses).
	Subst = cq.Subst
	// View is a named materialized view definition.
	View = views.View
	// ViewSet is a collection of views with unique names.
	ViewSet = views.Set
	// ViewTuple is a view tuple of a query given views (Section 3.3).
	ViewTuple = views.Tuple
	// Result is the output of FindGMRs / FindMinimalRewritings.
	Result = corecover.Result
	// Options tunes the CoreCover algorithms.
	Options = corecover.Options
	// ViewCatalog is an immutable compilation of a view set, built once
	// by CompileViews and shared freely across goroutines: precompiled
	// equivalence classes, the representative subset and its
	// candidate-prefilter predicate ids, with copy-on-write
	// AddViews/RemoveView returning a new catalog under a fresh
	// generation. Attach via Options.Catalog or PlanRequest.Catalog.
	ViewCatalog = corecover.Catalog
	// PlanCache is a size-bounded concurrent LRU memo of planning
	// Results keyed by the query's exact canonical key and the catalog
	// generation. Attach via Options.Cache or PlanRequest.Cache,
	// alongside a ViewCatalog.
	PlanCache = corecover.PlanCache
	// TupleCore is the set of query subgoals a view tuple covers.
	TupleCore = corecover.TupleCore
	// Database is the in-memory relational store.
	Database = engine.Database
	// Relation is a named relation with set semantics.
	Relation = engine.Relation
	// Tuple is one relation row.
	Tuple = engine.Tuple
	// Plan is a simulated physical plan with measured sizes and cost.
	Plan = cost.Plan
	// CostModel identifies M1, M2 or M3.
	CostModel = cost.Model
	// DropStrategy selects the M3 attribute-dropping rule.
	DropStrategy = cost.DropStrategy
	// FilterResult reports the Section 5.1 filter-selection outcome.
	FilterResult = cost.FilterResult
	// ExecOptions is ExecutePlan's option set. It has no fields: there
	// is one executor and nothing to select.
	ExecOptions = cost.ExecOptions
	// ExecStats reports one plan execution's row counts and peak
	// resident rows.
	ExecStats = cost.ExecStats
	// Tracer records hierarchical phase spans and atomic work counters
	// for one planning run; nil is the no-op default.
	Tracer = obs.Tracer
	// IRCache memoizes intermediate join relations across the cost
	// optimizers' candidate rewritings (Database.SetIRCache). PlanQuery
	// attaches a fresh one per call when none is set.
	IRCache = engine.IRCache
	// PlanningStats is a snapshot of a run's phase durations and
	// counters (Result.PlanningStats); renders as text or JSON.
	PlanningStats = obs.Snapshot
	// PhaseStats is one node of a PlanningStats phase tree.
	PhaseStats = obs.PhaseStats
	// Registry accumulates process-lifetime telemetry — request counts,
	// counters, flattened phase times, and latency/cardinality
	// histograms — across many planning runs (PlanRequest.Registry).
	// Safe for concurrent use; nil is the no-op default.
	Registry = obs.Registry
	// RegistrySnapshot is a point-in-time copy of a Registry, with
	// Delta for interval reporting and JSON rendering.
	RegistrySnapshot = obs.RegistrySnapshot
	// Histogram is a lock-free log-bucketed latency/cardinality
	// histogram (Registry.Histogram).
	Histogram = obs.Histogram
	// HistogramSnapshot is a Histogram copy with p50/p90/p99 estimates.
	HistogramSnapshot = obs.HistogramSnapshot
)

// Cost models and drop strategies.
const (
	M1 = cost.M1
	M2 = cost.M2
	M3 = cost.M3
	// SupplementaryRelations is the classical drop rule.
	SupplementaryRelations = cost.SupplementaryRelations
	// RenamingHeuristic is the paper's Section 6.2 drop rule.
	RenamingHeuristic = cost.RenamingHeuristic
)

// ParseQuery parses one conjunctive query in Datalog syntax, e.g.
// "q(X, Y) :- a(X, Z), b(Z, Y).".
func ParseQuery(src string) (*Query, error) { return cq.ParseQuery(src) }

// MustParseQuery is ParseQuery, panicking on error.
func MustParseQuery(src string) *Query { return cq.MustParseQuery(src) }

// ParseViews parses a program of view definitions (one rule per view).
func ParseViews(src string) (*ViewSet, error) { return views.ParseSet(src) }

// NewViews builds a view set from parsed definitions.
func NewViews(defs ...*Query) (*ViewSet, error) { return views.NewSet(defs...) }

// NewTracer returns an empty planner tracer to pass via Options.Tracer,
// PlanRequest.Tracer, or Database.SetTracer.
func NewTracer() *Tracer { return obs.New() }

// NewIRCache returns an empty intermediate-relation cache. Attach it
// with Database.SetIRCache to share materialized join results across
// several planning runs over an unchanged database; without one,
// PlanQuery memoizes within each call only.
func NewIRCache() *IRCache { return engine.NewIRCache() }

// NewTracerWithLog returns a tracer that additionally emits structured
// slog trace events (debug level): one per completed phase span and one
// per engine join step.
func NewTracerWithLog(l *slog.Logger) *Tracer { return obs.NewWithSink(l) }

// NewRegistry returns an empty telemetry registry. Share one across
// PlanQuery calls (PlanRequest.Registry) to aggregate counters, phase
// times, and latency histograms over the process lifetime; read it with
// Registry.Snapshot or serve it over HTTP with MetricsHandler.
func NewRegistry() *Registry { return obs.NewRegistry() }

// ProcessRegistry returns the package-global registry that the deepest
// layers (the containment kernel's per-search backtrack histogram, the
// join engine's per-step cardinality histogram) always feed, alongside
// anything recorded into it explicitly.
func ProcessRegistry() *Registry { return obs.Process }

// MetricsHandler serves a JSON snapshot of the registry (expvar-style)
// for mounting on a debug mux; nil serves the process registry.
func MetricsHandler(r *Registry) http.Handler { return obs.Handler(r) }

// WriteTrace writes the captured phase spans of one or more tracers as
// a Chrome trace-event JSON file, loadable at ui.perfetto.dev or
// chrome://tracing. Call Tracer.CaptureEvents before planning so the
// tracer retains its spans; each tracer becomes one named thread.
func WriteTrace(w io.Writer, tracers ...*Tracer) error { return obs.WriteTraceEvents(w, tracers...) }

// FindGMRs runs CoreCover (Section 4): it returns all globally-minimal
// rewritings of q using the views — the optimal rewritings under cost
// model M1. Result.Rewritings is empty when q has no equivalent
// rewriting. The Result's PlanningStats reports where planning time
// went; use FindGMRsWith to supply your own tracer (or, with a zero
// Options value, to plan with zero instrumentation overhead).
func FindGMRs(q *Query, vs *ViewSet) (*Result, error) {
	return corecover.CoreCover(q, vs, Options{Tracer: obs.New()})
}

// FindGMRsWith is FindGMRs with explicit options (grouping ablations,
// caps, tracing). Result.PlanningStats is populated only when
// opts.Tracer is set.
func FindGMRsWith(q *Query, vs *ViewSet, opts Options) (*Result, error) {
	return corecover.CoreCover(q, vs, opts)
}

// FindMinimalRewritings runs CoreCover* (Section 5): all minimal
// rewritings of q that use view tuples — the search space guaranteed to
// contain an optimal rewriting under cost model M2. Empty-core view
// tuples usable as filters are in Result.FilterClasses(). The Result's
// PlanningStats reports where planning time went.
func FindMinimalRewritings(q *Query, vs *ViewSet) (*Result, error) {
	return corecover.CoreCoverStar(q, vs, Options{Tracer: obs.New()})
}

// FindMinimalRewritingsWith is FindMinimalRewritings with options.
// Result.PlanningStats is populated only when opts.Tracer is set.
func FindMinimalRewritingsWith(q *Query, vs *ViewSet, opts Options) (*Result, error) {
	return corecover.CoreCoverStar(q, vs, opts)
}

// HasRewriting reports whether q has any equivalent rewriting over vs.
func HasRewriting(q *Query, vs *ViewSet) (bool, error) {
	return corecover.HasRewriting(q, vs)
}

// Expand computes the expansion P^exp of a rewriting (Definition 2.2).
func Expand(p *Query, vs *ViewSet) (*Query, error) { return vs.Expand(p) }

// IsEquivalentRewriting reports whether p is an equivalent rewriting of q
// using vs (Definition 2.3).
func IsEquivalentRewriting(p, q *Query, vs *ViewSet) bool {
	return vs.IsEquivalentRewriting(p, q)
}

// Contains reports q1 ⊑ q2 (Chandra–Merlin containment).
func Contains(q1, q2 *Query) bool { return containment.Contains(q1, q2) }

// Equivalent reports q1 ≡ q2.
func Equivalent(q1, q2 *Query) bool { return containment.Equivalent(q1, q2) }

// Minimize returns the minimal equivalent (core) of q.
func Minimize(q *Query) *Query { return containment.Minimize(q) }

// ViewTuples computes T(Q, V), the view tuples of q given the views
// (Section 3.3).
func ViewTuples(q *Query, vs *ViewSet) []ViewTuple {
	return views.ComputeTuples(containment.Minimize(q), vs, nil)
}

// NewDatabase creates an empty in-memory database. Load base facts with
// Database.LoadFacts and materialize views with Database.MaterializeViews.
func NewDatabase() *Database { return engine.NewDatabase() }

// M1Cost is the cost of a rewriting under model M1 (number of subgoals).
func M1Cost(p *Query) int { return cost.M1Cost(p) }

// BestPlanM2 finds a minimum-cost M2 physical plan for rewriting p over
// db (views must be materialized). See cost model M2, Section 5.
func BestPlanM2(db *Database, p *Query) (*Plan, error) { return cost.BestPlanM2(db, p) }

// BestPlanM3 finds a minimum-cost M3 physical plan under the given drop
// strategy. For the RenamingHeuristic, q and vs supply the original query
// and views for the Section 6.2 equivalence tests.
func BestPlanM3(db *Database, p *Query, strategy DropStrategy, q *Query, vs *ViewSet) (*Plan, error) {
	return cost.BestPlanM3(db, p, strategy, q, vs)
}

// ExecutePlan runs an optimizer-chosen plan over db and returns the
// answer relation: a pipeline of lazy scan, probe-join, projection,
// filter and head operators drained at the root, so no intermediate
// relation is materialized. The answer is byte-identical to replaying
// the plan's JoinStep chain (the relation the cost model measured).
func ExecutePlan(db *Database, p *Plan, opts ExecOptions) (*Relation, ExecStats, error) {
	return cost.ExecutePlan(db, p, opts)
}

// ImproveWithFilters greedily adds filtering view literals to a rewriting
// when they lower its best M2 cost (Section 5.1).
func ImproveWithFilters(db *Database, p, q *Query, vs *ViewSet, candidates []ViewTuple) (*FilterResult, error) {
	return cost.ImproveWithFilters(db, p, q, vs, candidates)
}

// Union is a union of conjunctive queries — the rewriting form needed for
// built-in predicates and maximally-contained rewritings (Section 8).
type Union = ucq.Union

// ParseUnion parses a Datalog program whose rules share one head
// predicate into a union of conjunctive queries.
func ParseUnion(src string) (*Union, error) { return ucq.Parse(src) }

// UnionContains reports u1 ⊑ u2 with the disjunct-wise Sagiv–Yannakakis
// test (exact for pure conjunctive disjuncts, sound with comparisons).
func UnionContains(u1, u2 *Union) bool { return ucq.Contains(u1, u2) }

// UnionEquivalent reports containment both ways.
func UnionEquivalent(u1, u2 *Union) bool { return ucq.Equivalent(u1, u2) }

// MinimizeUnion removes redundant disjuncts and minimizes each survivor.
func MinimizeUnion(u *Union) *Union { return ucq.Minimize(u) }

// EvaluateUnion computes the union's answer over the database.
func EvaluateUnion(db *Database, u *Union) (*Relation, error) { return ucq.Evaluate(db, u) }

// UnionCostM2 sums the best M2 plan cost over the union's disjuncts.
func UnionCostM2(db *Database, u *Union) (int, []*Plan, error) { return ucq.CostM2(db, u) }

// MaximallyContained builds a maximally-contained union rewriting of q
// over the views (Section 8; via MiniCon's contained combinations). It
// returns nil when no contained rewriting exists.
func MaximallyContained(q *Query, vs *ViewSet, maxDisjuncts int) (*Union, error) {
	return ucq.MaximallyContained(q, vs, maxDisjuncts)
}

// StatsCatalog holds System-R style statistics (row counts, per-column
// distinct counts) for estimating plan costs without execution.
type StatsCatalog = stats.Catalog

// Catalog is the former name of StatsCatalog.
//
// Deprecated: use StatsCatalog. "Catalog" now refers to the resident
// view world (ViewCatalog); this alias remains so existing callers of
// CollectStats keep compiling.
type Catalog = stats.Catalog

// CollectStats scans the database's relations into a StatsCatalog.
func CollectStats(db *Database) StatsCatalog { return stats.Collect(db) }

// EstimateBestOrderM2 returns the join order with the lowest estimated
// M2 cost for the rewriting, plus the estimate, from statistics alone.
func EstimateBestOrderM2(cat StatsCatalog, p *Query) ([]int, float64, error) {
	return stats.BestOrderM2(cat, p)
}

// CompileViews compiles a view set into a resident ViewCatalog: view
// validation, the per-view definition keys, the Section 5.2 equivalence
// classes, and the representative subset computed once and reused by
// every request that attaches the catalog. opts is accepted for symmetry
// with the planning entry points; no field of it affects the compile.
func CompileViews(vs *ViewSet, opts Options) (*ViewCatalog, error) {
	return corecover.CompileViews(vs, opts)
}

// NewPlanCache returns a concurrent plan cache bounded to capacity
// entries (LRU eviction; capacity <= 0 stores nothing). Share one cache
// across all requests planning against the same ViewCatalog lineage —
// keys embed the catalog generation, so entries from before an
// AddViews/RemoveView can never serve afterwards.
func NewPlanCache(capacity int) *PlanCache { return corecover.NewPlanCache(capacity) }
