package cost

import (
	"fmt"
	"math/bits"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
)

// maxDPSubgoals bounds the order search of both models: M2's per-state
// bookkeeping is allocated for all 2^n subsets up front, though only the
// states the search reaches are ever counted and far fewer materialized.
const maxDPSubgoals = 16

// lattice is the join-order search of both cost models. A plan costs
// Σ size(g_i) + Σ size(R_i), where R_i (IR_i or GSR_i) is determined by
// the state the prefix has reached, not by the order that reached it
// (see the package comment). The view sizes are the same for every order,
// so the search minimizes Σ size(R_i) over chains of states from the
// empty subgoal set to the full one: A* with an edge weighing the size
// of the state it reaches and the view sizes still to be paid as the
// exact heuristic. The first full state popped ends an optimal chain.
//
// States pop in (distance, subgoal mask, key) order, a total order, and
// an edge replaces a state's chain only when it is strictly cheaper, so a
// bound never changes which of several equal-cost plans is found.
type lattice struct {
	model latticeModel
	n     int
	full  int // mask of the full subgoal set

	// Per state: M2's are the 2^n masks, keyed states (ids non-nil) are
	// numbered as they are found. -1 marks an unknown distance or size; a
	// size above the limit it was measured under is only a lower bound.
	dist []int   // cheapest Σ size(R) found to reach the state
	pred []int32 // the state before it on that chain
	size []int
	rels []*engine.VarRelation // R, built when the model needs it
	done []bool
	ids  map[stateKey]int32
	keys []stateKey

	pq []latticeItem
}

// latticeModel is what a cost model adds: a state's name and size.
type latticeModel interface {
	// key names the state that joining subgoal g reaches from state st
	// among the states of its subgoal set (unused for unkeyed states).
	key(st, g int) string
	// measure returns the size of state next, reached from st by joining
	// g: exact when at most limit, otherwise a lower bound above limit.
	measure(st, g, next, limit int) (int, error)
}

type stateKey struct {
	mask int
	key  string
}

// searchBound checks that p can be ordered and returns its view sizes and
// the bound on Σ size(R_i) a plan cheaper than bound must stay under; a
// result of zero or less leaves nothing to search for.
func searchBound(db *engine.Database, p *cq.Query, bound int) ([]int, int, error) {
	if len(p.Body) == 0 {
		return nil, 0, fmt.Errorf("cost: empty rewriting body")
	}
	if len(p.Body) > maxDPSubgoals {
		return nil, 0, fmt.Errorf("cost: %d subgoals exceeds the optimizer limit of %d", len(p.Body), maxDPSubgoals)
	}
	sizes, err := viewSizes(db, p)
	if err != nil {
		return nil, 0, err
	}
	for _, w := range sizes {
		bound -= w
	}
	return sizes, bound, nil
}

// order returns the cheapest chain whose relations sum to less than
// irBound, as its states from the first step to the full set and its
// subgoal order, or nil when there is none.
func (s *lattice) order(tr *obs.Tracer, irBound int) (states, order []int, err error) {
	s.full = 1<<uint(s.n) - 1
	if s.ids != nil {
		s.state(0, "")
	} else {
		m := 1 << uint(s.n)
		s.dist, s.pred, s.size = make([]int, m), make([]int32, m), make([]int, m)
		s.rels, s.done = make([]*engine.VarRelation, m), make([]bool, m)
		for i := range s.dist {
			s.dist[i], s.size[i] = -1, -1
		}
	}
	goal, popped, err := s.run(irBound)
	tr.Add(obs.CtrOptStates, popped)
	if err != nil || goal < 0 {
		return nil, nil, err
	}
	// Every step joins one subgoal, so the chain has n states.
	buf := make([]int, 2*s.n)
	states, order = buf[:s.n], buf[s.n:]
	for k, st := s.n-1, goal; k >= 0; k, st = k-1, int(s.pred[st]) {
		states[k] = st
		order[k] = bits.TrailingZeros(uint(s.mask(st) ^ s.mask(int(s.pred[st]))))
	}
	return states, order, nil
}

// state returns the number of state (mask, key), numbering it if new.
func (s *lattice) state(mask int, key string) int {
	if s.ids == nil {
		return mask
	}
	k := stateKey{mask, key}
	id, ok := s.ids[k]
	if !ok {
		id = int32(len(s.dist))
		s.ids[k], s.keys = id, append(s.keys, k)
		s.dist, s.pred, s.size = append(s.dist, -1), append(s.pred, -1), append(s.size, -1)
		s.rels, s.done = append(s.rels, nil), append(s.done, false)
	}
	return int(id)
}

func (s *lattice) mask(st int) int {
	if s.ids == nil {
		return st
	}
	return s.keys[st].mask
}

// run settles states in order of Σ size(R) until a full state is popped
// or nothing cheaper than irBound is left, and returns that state (-1
// when there is none) and the number of states popped.
func (s *lattice) run(irBound int) (goal int, states int64, err error) {
	s.dist[0], s.rels[0] = 0, engine.UnitVarRelation()
	s.push(latticeItem{})
	for len(s.pq) > 0 {
		cur := s.pop()
		st, mask := int(cur.state), int(cur.mask)
		if s.done[st] {
			continue
		}
		s.done[st] = true
		states++
		if mask == s.full {
			return st, states, nil
		}
		// An edge into a state of size w lies on a chain cheaper than the
		// bound only if cur.dist + w < irBound.
		limit := irBound - cur.dist - 1
		for g := 0; g < s.n; g++ {
			if mask&(1<<uint(g)) != 0 {
				continue
			}
			next := s.state(mask|1<<uint(g), s.model.key(st, g))
			if s.done[next] {
				continue
			}
			w := s.size[next]
			if w < 0 {
				if w, err = s.model.measure(st, g, next, limit); err != nil {
					return -1, states, err
				}
				s.size[next] = w
			}
			if d := cur.dist + w; w <= limit && (s.dist[next] < 0 || d < s.dist[next]) {
				s.dist[next], s.pred[next] = d, int32(st)
				s.push(latticeItem{dist: d, mask: int32(mask | 1<<uint(g)), state: int32(next)})
			}
		}
	}
	return -1, states, nil
}

// latticeItem is a state in the search frontier.
type latticeItem struct {
	dist        int
	mask, state int32
}

func (s *lattice) less(a, b latticeItem) bool {
	if a.dist != b.dist || a.mask != b.mask {
		return a.dist < b.dist || a.dist == b.dist && a.mask < b.mask
	}
	return s.ids != nil && s.keys[a.state].key < s.keys[b.state].key
}

// push and pop keep s.pq a binary min-heap under less (container/heap
// would box every item).
func (s *lattice) push(it latticeItem) {
	s.pq = append(s.pq, it)
	for i := len(s.pq) - 1; i > 0 && s.less(s.pq[i], s.pq[(i-1)/2]); i = (i - 1) / 2 {
		s.pq[i], s.pq[(i-1)/2] = s.pq[(i-1)/2], s.pq[i]
	}
}

func (s *lattice) pop() latticeItem {
	h, top := s.pq, s.pq[0]
	h[0], h = h[len(h)-1], h[:len(h)-1]
	for i := 0; ; {
		small := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && s.less(h[c], h[small]) {
				small = c
			}
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	s.pq = h
	return top
}
