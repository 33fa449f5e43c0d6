package viewplan

import (
	"fmt"
	"math"

	"viewplan/internal/corecover"
	"viewplan/internal/cost"
	"viewplan/internal/obs"
)

// PlanRequest configures the one-shot planner: which cost model to
// optimize for and how much of the search space to explore. The zero
// value plans under M2 with filter selection enabled.
type PlanRequest struct {
	// Model selects M1, M2 or M3 (default M2).
	Model CostModel
	// Strategy selects the M3 drop rule. The zero value is
	// SupplementaryRelations; set RenamingHeuristic for the paper's
	// Section 6.2 rule. Any other value is an error under M3.
	Strategy DropStrategy
	// DisableFilters skips the Section 5.1 filter-augmentation pass
	// under M2.
	DisableFilters bool
	// MaxRewritings caps the rewritings considered (0 = all minimal
	// rewritings from CoreCover*).
	MaxRewritings int
	// Tracer, when non-nil, observes the whole pipeline — rewriting
	// generation, join-order optimization, and filter selection — and
	// PlanResult.Stats carries its snapshot. The tracer is attached to
	// db for the duration of the call (and restored afterwards). Calls
	// on one db must not overlap, tracer or not: the database builds its
	// join indexes lazily.
	Tracer *Tracer
	// Registry, when non-nil, accumulates this call into
	// process-lifetime telemetry: the request count, the run's counters
	// and phase times, the end-to-end latency histogram
	// (plan_latency_ns), and the candidate-rewriting cardinality
	// histogram. One Registry is safe to share across concurrent
	// PlanQuery calls and goroutines. When no Tracer is supplied, the
	// call gets a private one so the registry still sees the run (and
	// PlanResult.Stats carries its snapshot).
	Registry *Registry
	// Catalog, when non-nil, plans against the resident compiled view
	// world instead of the vs argument (which is then ignored): view
	// validation, equivalence grouping, and the representative subset
	// come precompiled from CompileViews. See Options.Catalog.
	Catalog *ViewCatalog
	// Cache, when non-nil alongside Catalog, memoizes the rewriting
	// generator's Results across requests under the query's exact
	// canonical key and the catalog generation. See Options.Cache.
	Cache *PlanCache
	// Execute also runs the chosen plan (M2/M3 only) through ExecutePlan
	// and fills PlanResult.Answer and PlanResult.ExecStats.
	Execute bool
}

// PlanResult is the planner's answer: the chosen rewriting with its
// physical plan, and what was explored along the way.
type PlanResult struct {
	// Rewriting is the chosen logical plan (possibly extended with
	// filtering view literals under M2).
	Rewriting *Query
	// Plan is its physical plan with measured sizes; nil under M1, where
	// the cost is purely the subgoal count.
	Plan *Plan
	// Cost is the plan cost (the subgoal count under M1).
	Cost int
	// Considered counts the candidate rewritings examined.
	Considered int
	// FiltersAdded lists filter literals appended under M2.
	FiltersAdded []Atom
	// Stats is the observability snapshot of the run when
	// PlanRequest.Tracer was set; nil otherwise.
	Stats *PlanningStats
	// Answer is the executed plan's result relation when
	// PlanRequest.Execute was set (nil under M1, which has no physical
	// plan to run).
	Answer *Relation
	// ExecStats reports the execution's row counts and peak resident
	// rows when the plan was executed.
	ExecStats *ExecStats
}

// PlanQuery runs the paper's full two-step architecture in one call:
// the rewriting generator (CoreCover for M1, CoreCover* for M2/M3)
// produces the cost model's guaranteed search space, and the optimizer
// picks the cheapest physical plan across it — join order via the
// subset-lattice search, filter views under M2, attribute-drop
// annotations under M3. Views must already be materialized in db for
// M2/M3 (M1 needs no data). It returns nil when q has no equivalent
// rewriting over vs.
func PlanQuery(db *Database, q *Query, vs *ViewSet, req PlanRequest) (*PlanResult, error) {
	if req.Model == 0 {
		req.Model = M2
	}
	if req.Registry != nil && req.Tracer == nil {
		req.Tracer = obs.New()
	}
	opts := corecover.Options{
		MaxRewritings: req.MaxRewritings,
		Tracer:        req.Tracer,
		Catalog:       req.Catalog,
		Cache:         req.Cache,
	}
	if req.Tracer != nil && db != nil {
		prev := db.Tracer()
		db.SetTracer(req.Tracer)
		defer db.SetTracer(prev)
	}
	snapshot := func() *PlanningStats {
		if req.Tracer == nil {
			return nil
		}
		return req.Tracer.Snapshot()
	}
	// record folds the finished request into the registry (latency,
	// counters, phase times, rewritings considered); requests without a
	// rewriting still count.
	record := func(stats *PlanningStats, considered int) {
		req.Registry.RecordPlan(stats, int64(considered))
	}

	if req.Model == M1 {
		res, err := corecover.CoreCover(q, vs, opts)
		if err != nil {
			return nil, err
		}
		if len(res.Rewritings) == 0 {
			record(snapshot(), 0)
			return nil, nil
		}
		p := res.Rewritings[0]
		stats := snapshot()
		record(stats, len(res.Rewritings))
		return &PlanResult{
			Rewriting:  p,
			Cost:       cost.M1Cost(p),
			Considered: len(res.Rewritings),
			Stats:      stats,
		}, nil
	}

	if db == nil {
		return nil, fmt.Errorf("viewplan: cost model %s needs a database with materialized views", req.Model)
	}
	res, err := corecover.CoreCoverStar(q, vs, opts)
	if err != nil {
		return nil, err
	}
	if len(res.Rewritings) == 0 {
		record(snapshot(), 0)
		return nil, nil
	}

	// One incumbent for the request: each candidate is searched only for
	// a plan strictly cheaper than the best so far, in CoreCover*'s order,
	// so the first minimum wins and a candidate that cannot win is given
	// up after its view-size sum or a few bounded counts.
	// Candidate rewritings share view tuples, so their searches keep
	// sizing and joining the same subgoal sets; the request's memo hands
	// each back to every later candidate and to filter selection.
	var best *PlanResult
	bound := math.MaxInt
	memo := new(cost.Memo)
	for _, p := range res.Rewritings {
		var plan *cost.Plan
		switch req.Model {
		case M2:
			plan, err = cost.BestPlanM2Below(db, p, bound, memo)
		case M3:
			plan, err = cost.BestPlanM3Below(db, p, req.Strategy, q, vs, bound, memo)
		default:
			return nil, fmt.Errorf("viewplan: unknown cost model %v", req.Model)
		}
		if err != nil {
			return nil, err
		}
		if plan != nil {
			best = &PlanResult{Rewriting: p.Clone(), Plan: plan, Cost: plan.Cost}
			bound = plan.Cost
		}
	}
	if best == nil {
		return nil, fmt.Errorf("viewplan: internal error: none of %d candidate rewritings has a plan of representable cost", len(res.Rewritings))
	}
	best.Considered = len(res.Rewritings)

	// Filter augmentation (Section 5.1) applies under M2 only.
	if req.Model == M2 && !req.DisableFilters {
		var candidates []ViewTuple
		for _, fc := range res.FilterClasses() {
			candidates = append(candidates, fc.Members...)
		}
		if len(candidates) > 0 {
			fr, err := cost.ImproveWithFilters(db, best.Rewriting, q, vs, candidates, memo)
			if err != nil {
				return nil, err
			}
			if fr.Plan.Cost < best.Cost {
				best.Rewriting = fr.Rewriting
				best.Plan = fr.Plan
				best.Cost = fr.Plan.Cost
				best.FiltersAdded = fr.Added
			}
		}
	}
	// Execution rides inside the tracer/registry window so its counters
	// and histograms land in the same snapshot as the planning run.
	if req.Execute {
		answer, stats, err := cost.ExecutePlan(db, best.Plan, cost.ExecOptions{})
		if err != nil {
			return nil, err
		}
		best.Answer = answer
		best.ExecStats = &stats
	}

	best.Stats = snapshot()
	record(best.Stats, best.Considered)
	return best, nil
}
