package cost

import (
	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
)

// executeMaterialized is the byte-identity oracle for ExecutePlan: it
// replays the plan's JoinStep chain exactly as the cost simulation ran
// it — same order, same per-step projections — then filters and
// projects the head. It deliberately bypasses the IR cache: cached
// intermediates may have been materialized under a different join
// order, and while their row sets are equal their insertion order is
// not, which would break byte-identity with the production executor.
// PeakResidentRows is the largest adjacent intermediate pair (IR_{i-1}
// feeds the join producing IR_i, so both are live).
func executeMaterialized(db *engine.Database, p *Plan, q *cq.Query, order []int) (*engine.Relation, ExecStats, error) {
	retains := stepRetains(p, order)
	var stats ExecStats
	cur := engine.UnitVarRelation()
	peak := int64(cur.Size())
	for k, idx := range order {
		var retain []cq.Var
		if retains != nil {
			retain = retains[k]
		}
		next, err := db.JoinStep(cur, q.Body[idx], retain)
		if err != nil {
			return nil, ExecStats{}, err
		}
		if r := int64(cur.Size()) + int64(next.Size()); r > peak {
			peak = r
		}
		cur = next
	}
	if q.HasComparisons() {
		filtered, err := engine.FilterComparisons(cur, q.Comparisons)
		if err != nil {
			return nil, ExecStats{}, err
		}
		if r := int64(cur.Size()) + int64(filtered.Size()); r > peak {
			peak = r
		}
		cur = filtered
	}
	out, err := db.ProjectHead(cur, q.Head, false)
	if err != nil {
		return nil, ExecStats{}, err
	}
	if r := int64(cur.Size()) + int64(out.Size()); r > peak {
		peak = r
	}
	stats.Rows = out.Size()
	stats.PeakResidentRows = peak
	return out, stats, nil
}

// oracleRun is one execution's answer with the work it took.
type oracleRun struct {
	rel       *engine.Relation
	stats     ExecStats
	probeRows int64
}

// runOracle and runProduction execute p under a private tracer, so each
// reports its own join_probe_rows.
func runOracle(db *engine.Database, p *Plan) (oracleRun, error) {
	order := p.Order
	if order == nil {
		order = identityOrder(len(p.Rewriting.Body))
	}
	return traced(db, func() (*engine.Relation, ExecStats, error) {
		return executeMaterialized(db, p, p.Rewriting, order)
	})
}

func runProduction(db *engine.Database, p *Plan) (oracleRun, error) {
	return traced(db, func() (*engine.Relation, ExecStats, error) {
		return ExecutePlan(db, p, ExecOptions{})
	})
}

func traced(db *engine.Database, run func() (*engine.Relation, ExecStats, error)) (oracleRun, error) {
	tr := obs.New()
	prev := db.Tracer()
	db.SetTracer(tr)
	defer db.SetTracer(prev)
	rel, stats, err := run()
	return oracleRun{rel: rel, stats: stats, probeRows: tr.Counter(obs.CtrJoinProbeRows)}, err
}
