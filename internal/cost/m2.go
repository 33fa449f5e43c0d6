package cost

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
)

// maskKeyer builds canonical IR-cache keys for subgoal subsets of one
// rewriting body. Because an M2 intermediate relation retains all
// attributes, it is determined by the *set* of subgoals joined so far,
// so the key is the sorted list of subgoal atom strings — identical
// across join orders and across rewritings sharing view tuples.
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

func (k *maskKeyer) key(mask int) string {
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

// joinStepCached materializes the join of cur with body[g] through the
// database's IR cache under the canonical key for mask (the subgoal set
// including g). The reused relation's schema is forced to exactly what
// JoinStep would produce, so plans built from cached relations render
// byte-identically to uncached ones.
func joinStepCached(db *engine.Database, keyer *maskKeyer, mask int, cur *engine.VarRelation, atom cq.Atom) (*engine.VarRelation, error) {
	if keyer == nil || db.IRCache() == nil {
		return db.JoinStep(cur, atom, nil)
	}
	key := keyer.key(mask)
	want := engine.JoinSchema(cur.Schema, atom)
	if vr, ok := db.IRLookup(key, want); ok {
		return vr, nil
	}
	vr, err := db.JoinStep(cur, atom, nil)
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
		cur, err = joinStepCached(db, keyer, mask, cur, p.Body[idx])
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

// maxDPSubgoals bounds the subset search: its per-state bookkeeping
// (distance, predecessor, memoized size) is allocated for all 2^n
// subsets up front, though only the states the search reaches are ever
// counted and far fewer are materialized.
const maxDPSubgoals = 16

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
// Because IR_i retains all attributes, it is the natural join of the
// *set* of subgoals processed so far — independent of their order — and
// the view-size term Σ size(g_i) is the same for every order. The
// optimizer therefore minimizes Σ size(IR_S) over chains ∅ ⊂ S_1 ⊂ ... ⊂
// S_n with a best-first search over the subset lattice whose edge weight
// is size(IR_target) alone. That is A* on the M2 cost with the view
// sizes still to be paid as the heuristic (exact, so admissible and
// consistent): the constant Σ size(g_i) drops out of the ordering, and
// the first time the full set is popped its chain is optimal.
//
// The search needs sizes, not rows. An edge is relaxed with
// engine.JoinCount, limited to what is left of the bound, and an exact
// count is memoized in the IR cache under the subset's canonical key, so
// rewritings sharing view tuples share counts. A subset's relation is
// materialized only when a successor of it has to be counted, along the
// chain the search settled for it. Cross-product subsets get enormous
// sizes and are counted but never materialized, which keeps the search
// from building the exponential blowup an eager subset DP would hit.
func BestPlanM2Below(db *engine.Database, p *cq.Query, bound int) (*Plan, error) {
	n := len(p.Body)
	if n == 0 {
		return nil, fmt.Errorf("cost: empty rewriting body")
	}
	if n > maxDPSubgoals {
		return nil, fmt.Errorf("cost: %d subgoals exceeds the M2 optimizer limit of %d", n, maxDPSubgoals)
	}
	tr := db.Tracer()
	sp := tr.Start(obs.PhaseM2Optimizer)
	defer sp.End()
	sizes, err := viewSizes(db, p)
	if err != nil {
		return nil, err
	}
	// A plan costs Σ size(g_i) + Σ size(IR_i): it beats the bound exactly
	// when its intermediate relations sum to less than irBound.
	irBound := bound
	for _, s := range sizes {
		irBound -= s
	}
	if irBound <= 0 {
		return nil, nil
	}

	s := m2Search{
		db:     db,
		body:   p.Body,
		rels:   make([]*engine.VarRelation, 1<<uint(n)),
		size:   make([]int, 1<<uint(n)),
		dist:   make([]int, 1<<uint(n)),
		choice: make([]int8, 1<<uint(n)),
	}
	if db.IRCache() != nil {
		s.keyer = newMaskKeyer(p.Body)
	}
	states, err := s.run(irBound)
	tr.Add(obs.CtrOptStates, states)
	full := len(s.rels) - 1
	if err != nil || s.dist[full] < 0 {
		return nil, err
	}

	// Reconstruct the order.
	order := make([]int, 0, n)
	for mask := full; mask != 0; {
		g := int(s.choice[mask])
		order = append(order, g)
		mask &^= 1 << uint(g)
	}
	reverse(order)

	plan := &Plan{Model: M2, Rewriting: p.Clone(), Order: order}
	var schema engine.Schema
	mask := 0
	for _, idx := range order {
		mask |= 1 << uint(idx)
		schema = engine.JoinSchema(schema, p.Body[idx])
		plan.Steps = append(plan.Steps, Step{
			Subgoal:    p.Body[idx].Clone(),
			ViewSize:   sizes[idx],
			Retained:   append([]cq.Var(nil), schema...),
			ResultSize: s.size[mask],
		})
		plan.Cost += sizes[idx] + s.size[mask]
	}
	return plan, nil
}

// m2Search is the state of one subset-lattice search, indexed by subgoal
// bitmask. dist is the cheapest Σ size(IR) found to reach a subset and
// choice the subgoal joined last on that chain; size is the subset's
// |IR|, exact for every subset the search reaches; both are -1 until
// known.
type m2Search struct {
	db     *engine.Database
	body   []cq.Atom
	keyer  *maskKeyer // nil without an IR cache
	rels   []*engine.VarRelation
	size   []int
	dist   []int
	choice []int8
}

// run settles subsets in order of Σ size(IR) until the full set is
// popped or nothing cheaper than irBound is left, and returns the number
// of states popped.
func (s *m2Search) run(irBound int) (states int64, err error) {
	n := len(s.body)
	full := len(s.rels) - 1
	for i := range s.dist {
		s.dist[i], s.size[i] = -1, -1
	}
	s.dist[0] = 0
	s.rels[0] = engine.UnitVarRelation()
	done := make([]bool, len(s.rels))
	pq := &maskHeap{{mask: 0, dist: 0}}
	for pq.Len() > 0 {
		cur := pq.pop()
		if done[cur.mask] {
			continue
		}
		done[cur.mask] = true
		states++
		if cur.mask == full {
			break
		}
		// An edge into a subset of size w lies on a chain cheaper than
		// the bound only if cur.dist + w < irBound.
		limit := irBound - cur.dist - 1
		for g := 0; g < n; g++ {
			next := cur.mask | 1<<uint(g)
			if next == cur.mask || done[next] {
				continue
			}
			w := s.size[next]
			if w < 0 {
				// Past the limit w is only a lower bound, which is all
				// the later pops, with their tighter limits, need of it.
				if w, err = s.count(cur.mask, g, limit); err != nil {
					return states, err
				}
				s.size[next] = w
			}
			if w > limit {
				continue
			}
			if d := cur.dist + w; s.dist[next] < 0 || d < s.dist[next] {
				s.dist[next] = d
				s.choice[next] = int8(g)
				pq.push(maskItem{mask: next, dist: d})
			}
		}
	}
	return states, nil
}

// count returns |IR| of mask ∪ {g}, exact when at most limit: from the
// IR cache when some search of this request already counted the subset,
// otherwise by a count-only probe of mask's relation.
func (s *m2Search) count(mask, g, limit int) (int, error) {
	var key string
	if s.keyer != nil {
		key = s.keyer.key(mask | 1<<uint(g))
		if w, ok := s.db.IRSize(key); ok {
			return w, nil
		}
	}
	cur, err := s.rel(mask)
	if err != nil {
		return 0, err
	}
	w, err := s.db.JoinCount(cur, s.body[g], limit)
	if err == nil && w <= limit && s.keyer != nil {
		s.db.IRStoreSize(key, w)
	}
	return w, err
}

// rel materializes a settled subset's relation on first use, joining
// along the chain the search settled for it (through the IR cache, under
// the subset's canonical key).
func (s *m2Search) rel(mask int) (*engine.VarRelation, error) {
	if s.rels[mask] != nil {
		return s.rels[mask], nil
	}
	g := int(s.choice[mask])
	prev, err := s.rel(mask &^ (1 << uint(g)))
	if err != nil {
		return nil, err
	}
	s.rels[mask], err = joinStepCached(s.db, s.keyer, mask, prev, s.body[g])
	return s.rels[mask], err
}

// BestPlanM2Exhaustive cross-checks BestPlanM2 by trying every
// permutation. It is exposed for tests and the optimizer ablation
// benchmark; n is capped to keep factorial growth in check.
func BestPlanM2Exhaustive(db *engine.Database, p *cq.Query) (*Plan, error) {
	n := len(p.Body)
	if n > 9 {
		return nil, fmt.Errorf("cost: %d subgoals exceeds the exhaustive limit of 9", n)
	}
	var best *Plan
	err := forEachPermutation(n, func(order []int) error {
		plan, err := PlanM2(db, p, order)
		if err != nil {
			return err
		}
		if best == nil || plan.Cost < best.Cost {
			best = plan
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return best, nil
}

// maskItem is a subset-lattice node in the search frontier.
type maskItem struct {
	mask int
	dist int
}

// maskHeap is a minimal binary min-heap on dist (stdlib container/heap
// would need an interface wrapper; the heap is small and hot).
type maskHeap []maskItem

func (h *maskHeap) Len() int { return len(*h) }

func (h *maskHeap) push(it maskItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].dist <= (*h)[i].dist {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *maskHeap) pop() maskItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && (*h)[l].dist < (*h)[small].dist {
			small = l
		}
		if r < last && (*h)[r].dist < (*h)[small].dist {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

func reverse(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// forEachPermutation invokes fn with every permutation of 0..n-1 (Heap's
// algorithm). fn must not retain the slice.
func forEachPermutation(n int, fn func([]int) error) error {
	perm := identityOrder(n)
	var rec func(k int) error
	rec = func(k int) error {
		if k == 1 {
			return fn(perm)
		}
		for i := 0; i < k; i++ {
			if err := rec(k - 1); err != nil {
				return err
			}
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
		return nil
	}
	return rec(n)
}
