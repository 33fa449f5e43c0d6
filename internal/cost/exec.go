// Plan execution: running an optimizer-chosen physical plan through the
// engine's iterator pipeline to produce its answer relation. The result
// is byte-identical — same interner ids, same insertion order — to
// replaying the materialized JoinStep chain the cost simulation
// measured; that replay is the oracle of exec_oracle_test.go and of the
// full-corpus differential harness in the root package.
package cost

import (
	"fmt"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
)

// ExecOptions is the (empty) option set of ExecutePlan: there is one
// executor and nothing to select.
type ExecOptions struct{}

// ExecStats reports one plan execution's work.
type ExecStats struct {
	// Rows is the size of the answer relation.
	Rows int
	// RawRows is the number of rows pulled at the pipeline root before
	// the answer's set-semantics dedup.
	RawRows int64
	// PeakResidentRows is the peak number of execution-owned resident
	// rows: the dedup sets of the plan's M3 projections plus the answer.
	PeakResidentRows int64
}

// ExecutePlan runs a plan produced by PlanM2/BestPlanM2/PlanM3/
// BestPlanM3 over the database that costed it and returns the answer
// relation named after the rewriting's head: scans and probe joins in
// the plan's order, the M3 per-step projections, the comparison filter
// and the head, drained at the root with no intermediate relation
// materialized. The result relation does not bump the database
// generation, so executing one candidate does not invalidate
// intermediates the IR cache holds for the next.
func ExecutePlan(db *engine.Database, p *Plan, _ ExecOptions) (*engine.Relation, ExecStats, error) {
	if p == nil || p.Rewriting == nil {
		return nil, ExecStats{}, fmt.Errorf("cost: nil plan")
	}
	q := p.Rewriting
	order := p.Order
	if order == nil {
		order = identityOrder(len(q.Body))
	}
	if err := validOrder(order, len(q.Body)); err != nil {
		return nil, ExecStats{}, err
	}
	out, stats, err := db.StreamQuery(q, order, stepRetains(p, order), false)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return out, ExecStats(stats), nil
}

// stepRetains returns the per-step projection lists for replay: M3
// plans recorded the exact keep list each JoinStep projected onto; M2
// plans retain everything (nil means no projection).
func stepRetains(p *Plan, order []int) [][]cq.Var {
	if p.Model != M3 || len(p.Steps) != len(order) {
		return nil
	}
	retains := make([][]cq.Var, len(order))
	for k := range p.Steps {
		retains[k] = p.Steps[k].Retained
	}
	return retains
}
