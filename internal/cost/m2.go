package cost

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
)

// maskKeyer builds canonical IR-cache keys for subgoal subsets of one
// rewriting body. An M2 intermediate relation is determined by the *set*
// of subgoals joined, so its key is the sorted list of their atom
// strings — identical across join orders and across rewritings sharing
// view tuples. M3's gsrKey extends it.
type maskKeyer struct {
	atoms  []string // atom string per body index
	sorted []int    // body indices ordered by atom string
}

func newMaskKeyer(body []cq.Atom) *maskKeyer {
	k := &maskKeyer{atoms: make([]string, len(body)), sorted: identityOrder(len(body))}
	for i, a := range body {
		k.atoms[i] = a.String()
	}
	sort.Slice(k.sorted, func(i, j int) bool { return k.atoms[k.sorted[i]] < k.atoms[k.sorted[j]] })
	return k
}

// key names the join of the subgoals in mask; a nil keyer (no IR cache)
// names nothing.
func (k *maskKeyer) key(mask int) string {
	if k == nil {
		return ""
	}
	size := len("m2")
	for i, a := range k.atoms {
		if mask&(1<<uint(i)) != 0 {
			size += 1 + len(a)
		}
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("m2")
	for _, i := range k.sorted {
		if mask&(1<<uint(i)) != 0 {
			b.WriteByte(0)
			b.WriteString(k.atoms[i])
		}
	}
	return b.String()
}

// joinStepCached is db.JoinStep(cur, atom, keep) through the database's
// IR cache under key, the canonical name of the result (maskKeyer.key
// under M2, maskKeyer.gsrKey under M3); an empty key bypasses the cache.
// The reused relation's schema is forced to exactly what JoinStep would
// produce, so plans built from cached relations render byte-identically
// to uncached ones.
func joinStepCached(db *engine.Database, key string, cur *engine.VarRelation, atom cq.Atom, keep []cq.Var) (*engine.VarRelation, error) {
	if key == "" || db.IRCache() == nil {
		return db.JoinStep(cur, atom, keep)
	}
	want := engine.Schema(keep)
	if keep == nil {
		want = engine.JoinSchema(cur.Schema, atom)
	}
	if vr, ok := db.IRLookup(key, want); ok {
		return vr, nil
	}
	vr, err := db.JoinStep(cur, atom, keep)
	if err != nil {
		return nil, err
	}
	db.IRStore(key, vr)
	return vr, nil
}

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
	var keyer *maskKeyer
	if db.IRCache() != nil {
		keyer = newMaskKeyer(p.Body)
	}
	cur := engine.UnitVarRelation()
	mask := 0
	for _, idx := range order {
		mask |= 1 << uint(idx)
		cur, err = joinStepCached(db, keyer.key(mask), cur, p.Body[idx], nil)
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
// search of BestPlanM2Below with no bound.
func BestPlanM2(db *engine.Database, p *cq.Query) (*Plan, error) {
	plan, err := BestPlanM2Below(db, p, math.MaxInt)
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
// left of the bound, and exact counts are memoized in the IR cache. A
// subset's relation is materialized only when a successor of it has to
// be counted, so cross-product subsets are counted but never built.
func BestPlanM2Below(db *engine.Database, p *cq.Query, bound int) (*Plan, error) {
	tr := db.Tracer()
	sp := tr.Start(obs.PhaseM2Optimizer)
	defer sp.End()
	sizes, irBound, err := searchBound(db, p, bound)
	if irBound <= 0 {
		return nil, err
	}
	m := &m2Model{lattice: lattice{n: len(p.Body)}, db: db, body: p.Body}
	m.model = m
	if db.IRCache() != nil {
		m.keyer = newMaskKeyer(p.Body)
	}
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
	keyer *maskKeyer // nil without an IR cache
}

// key is empty: an M2 state is its subgoal set.
func (m *m2Model) key(st, g int) string { return "" }

// measure returns |IR| of mask ∪ {g}, exact when at most limit: from the IR
// cache when some search of this request already counted the subset,
// otherwise by a count-only probe of mask's relation.
func (m *m2Model) measure(mask, g, next, limit int) (int, error) {
	key := m.keyer.key(next)
	if w, ok := m.db.IRSize(key); ok {
		return w, nil
	}
	cur, err := m.rel(mask)
	if err != nil {
		return 0, err
	}
	w, err := m.db.JoinCount(cur, m.body[g], limit)
	if err == nil && w <= limit {
		m.db.IRStoreSize(key, w)
	}
	return w, err
}

// rel materializes a settled subset's relation on first use, joining
// along the chain the search settled for it (through the IR cache, under
// the subset's canonical key).
func (m *m2Model) rel(mask int) (*engine.VarRelation, error) {
	if m.rels[mask] != nil {
		return m.rels[mask], nil
	}
	prev := int(m.pred[mask])
	cur, err := m.rel(prev)
	if err != nil {
		return nil, err
	}
	m.rels[mask], err = joinStepCached(m.db, m.keyer.key(mask), cur, m.body[bits.TrailingZeros(uint(mask^prev))], nil)
	return m.rels[mask], err
}
