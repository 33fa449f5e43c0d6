package cost

import (
	"fmt"
	"math"
	"math/bits"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
)

// PlanM2 simulates the M2 physical plan of rewriting p that joins the
// subgoals in the given order, retaining all attributes (IR_i), and
// returns the plan with measured sizes and cost. A nil order means the
// body's own order.
func PlanM2(db *engine.Database, p *cq.Query, order []int) (*Plan, error) {
	n := len(p.Body)
	if order == nil {
		order = identityOrder(n)
	}
	if err := validOrder(order, n); err != nil {
		return nil, err
	}
	sizes, err := viewSizes(db, p)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Model: M2, Rewriting: p.Clone(), Order: append([]int(nil), order...)}
	cur := engine.UnitVarRelation()
	for _, idx := range order {
		cur, err = db.JoinStep(cur, p.Body[idx], nil)
		if err != nil {
			return nil, err
		}
		plan.Steps = append(plan.Steps, Step{
			Subgoal:    p.Body[idx].Clone(),
			ViewSize:   sizes[idx],
			Retained:   append([]cq.Var(nil), cur.Schema...),
			ResultSize: cur.Size(),
		})
		plan.Cost += sizes[idx] + cur.Size()
	}
	return plan, nil
}

// BestPlanM2 finds a minimum-cost M2 plan for rewriting p over db: the
// search of BestPlanM2Below with no bound and a fresh memo.
func BestPlanM2(db *engine.Database, p *cq.Query) (*Plan, error) {
	return bestPlanM2(db, p, new(Memo))
}

func bestPlanM2(db *engine.Database, p *cq.Query, memo *Memo) (*Plan, error) {
	plan, err := BestPlanM2Below(db, p, math.MaxInt, memo)
	if err == nil && plan == nil {
		err = fmt.Errorf("cost: internal error: full join unreachable")
	}
	return plan, err
}

// BestPlanM2Below finds a minimum-cost M2 plan for rewriting p over db
// among the plans that cost less than bound; it returns a nil plan when
// there is none. PlanQuery and ImproveWithFilters pass the cost of the
// best plan they hold, so a candidate that cannot replace it is given up
// after its view-size sum or a few bounded counts.
//
// The order is the lattice search's over subgoal sets, which needs sizes,
// not rows: an edge is relaxed with engine.JoinCount, limited to what is
// left of the bound, and exact counts are kept in memo, the request's. A
// subset's relation is materialized only when a successor of it has to
// be counted, so cross-product subsets are counted but never built.
func BestPlanM2Below(db *engine.Database, p *cq.Query, bound int, memo *Memo) (*Plan, error) {
	tr := db.Tracer()
	sp := tr.Start(obs.PhaseM2Optimizer)
	defer sp.End()
	sizes, irBound, err := searchBound(db, p, bound)
	if irBound <= 0 {
		return nil, err
	}
	m := &m2Model{lattice: lattice{n: len(p.Body)}, db: db, body: p.Body, memo: memo, keyer: memo.keyer(p.Body)}
	m.model = m
	states, order, err := m.order(tr, irBound)
	if states == nil {
		return nil, err
	}
	plan := &Plan{Model: M2, Rewriting: p.Clone(), Order: order}
	var schema engine.Schema
	for k, st := range states {
		g := order[k]
		schema = engine.JoinSchema(schema, p.Body[g])
		plan.Steps = append(plan.Steps, Step{
			Subgoal:    p.Body[g].Clone(),
			ViewSize:   sizes[g],
			Retained:   append([]cq.Var(nil), schema...),
			ResultSize: m.size[st],
		})
		plan.Cost += sizes[g] + m.size[st]
	}
	return plan, nil
}

// m2Model sizes the lattice's subsets by count-only probes.
type m2Model struct {
	lattice
	db    *engine.Database
	body  []cq.Atom
	memo  *Memo
	keyer *maskKeyer
}

// key is empty: an M2 state is its subgoal set.
func (m *m2Model) key(st, g int) string { return "" }

// measure returns |IR| of mask ∪ {g}, exact when at most limit: from the
// memo when some search of this request already counted the subset,
// otherwise by a count-only probe of mask's relation.
func (m *m2Model) measure(mask, g, next, limit int) (int, error) {
	key := m.keyer.subset(next)
	w, ok := m.memo.sizes[key]
	tickMemo(m.db.Tracer(), ok)
	if ok {
		return w, nil
	}
	cur, err := m.rel(mask)
	if err != nil {
		return 0, err
	}
	w, err = m.db.JoinCount(cur, m.body[g], limit)
	if err == nil && w <= limit {
		m.memo.sizes[key] = w
	}
	return w, err
}

// rel materializes a settled subset's relation on first use, joining
// along the chain the search settled for it (through the memo, under the
// subset's key).
func (m *m2Model) rel(mask int) (*engine.VarRelation, error) {
	if m.rels[mask] != nil {
		return m.rels[mask], nil
	}
	prev := int(m.pred[mask])
	cur, err := m.rel(prev)
	if err != nil {
		return nil, err
	}
	m.rels[mask], err = memoJoin(m.db, m.memo.rels, m.keyer.subset(mask), cur, m.body[bits.TrailingZeros(uint(mask^prev))], nil)
	return m.rels[mask], err
}
