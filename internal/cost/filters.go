package cost

import (
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
	"viewplan/internal/views"
)

// FilterResult reports the outcome of filter selection for one rewriting.
type FilterResult struct {
	// Rewriting is the (possibly extended) rewriting.
	Rewriting *cq.Query
	// Plan is its best M2 plan.
	Plan *Plan
	// Added lists the filter literals appended to the original body.
	Added []cq.Atom
}

// ImproveWithFilters implements the Section 5.1 observation that adding a
// view subgoal with an empty tuple-core can make a rewriting cheaper
// under M2 (the paper's P3 versus P2: view v3 acts as a selective
// filter). Starting from rewriting p, it greedily appends candidate
// filter literals while each addition (a) keeps the rewriting equivalent
// to q and (b) strictly lowers the best M2 plan cost on db. Candidates
// are typically Result.FilterClasses tuples from CoreCoverStar, but any
// view tuple works.
func ImproveWithFilters(db *engine.Database, p, q *cq.Query, vs *views.Set, candidates []views.Tuple) (*FilterResult, error) {
	tr := db.Tracer()
	sp := tr.Start(obs.PhaseFilterSelection)
	defer sp.End()
	best, err := BestPlanM2(db, p)
	if err != nil {
		return nil, err
	}
	cur := p.Clone()
	res := &FilterResult{Rewriting: cur, Plan: best}
	for {
		improved := false
		for _, cand := range candidates {
			if cq.ContainsAtom(cur.Body, cand.Atom) {
				continue
			}
			tr.Add(obs.CtrFilterCandidates, 1)
			ext := cur.Clone()
			ext.Body = append(ext.Body, cand.Atom.Clone())
			if !vs.IsEquivalentRewriting(ext, q) {
				continue
			}
			// Only a strictly cheaper extension is kept, so the current
			// plan's cost bounds the search.
			plan, err := BestPlanM2Below(db, ext, res.Plan.Cost)
			if err != nil {
				return nil, err
			}
			if plan != nil {
				res.Rewriting = ext
				res.Plan = plan
				res.Added = append(res.Added, cand.Atom.Clone())
				tr.Add(obs.CtrFiltersAdded, 1)
				cur = ext
				improved = true
				break
			}
		}
		if !improved {
			return res, nil
		}
	}
}
