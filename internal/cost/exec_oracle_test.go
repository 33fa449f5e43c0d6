package cost

import (
	"fmt"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
)

// executeMaterialized is the byte-identity oracle for ExecutePlan: it
// replays the plan's JoinStep chain exactly as the cost simulation ran
// it — same order, same per-step projections — then filters and
// projects the head in string space (answerInStrings), apart from the
// executor's interned operators. It deliberately bypasses the IR cache:
// cached intermediates may have been materialized under a different
// join order, and while their row sets are equal their insertion order
// is not, which would break byte-identity with the production executor.
// PeakResidentRows is the largest adjacent intermediate pair (IR_{i-1}
// feeds the join producing IR_i, so both are live; the filtered rows
// count as one more intermediate).
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
	out, kept, err := answerInStrings(cur, q)
	if err != nil {
		return nil, ExecStats{}, err
	}
	last := int64(cur.Size())
	if q.HasComparisons() {
		peak = max(peak, last+int64(kept))
		last = int64(kept)
	}
	stats.Rows = out.Size()
	stats.PeakResidentRows = max(peak, last+int64(out.Size()))
	return out, stats, nil
}

// answerInStrings is the tail of a materialized replay, over decoded
// rows: it keeps the rows of cur that satisfy q's comparisons (reporting
// how many) and inserts their head tuples into a standalone relation.
// Insert keeps each tuple's first occurrence, so the row order is the
// materialized insertion order.
func answerInStrings(cur *engine.VarRelation, q *cq.Query) (*engine.Relation, int, error) {
	out := engine.NewRelation(q.Name(), q.Head.Arity())
	kept := 0
	for _, row := range cur.Rows() {
		s := make(cq.Subst, len(row))
		for i, v := range cur.Schema {
			s[v] = row[i]
		}
		pass := true
		for _, c := range s.Comparisons(q.Comparisons) {
			ok, err := cq.EvalComparison(c)
			if err != nil {
				return nil, 0, err
			}
			pass = pass && ok
		}
		if !pass {
			continue
		}
		kept++
		head := s.Atom(q.Head)
		t := make(engine.Tuple, len(head.Args))
		for i, a := range head.Args {
			c, ok := a.(cq.Const)
			if !ok {
				return nil, 0, fmt.Errorf("head term %v not bound by schema %v", a, cur.Schema)
			}
			t[i] = c
		}
		out.Insert(t)
	}
	return out, kept, nil
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
