package cost

import (
	"sort"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
)

// Memo is what one planning request has measured, shared by the
// join-order searches of all its candidate rewritings. The rewritings
// CoreCover* produces for one query share view tuples, so the subsets one
// candidate's search sizes and joins recur in the next; the memo hands
// back the size or relation found the first time. PlanQuery builds one
// per call and passes it to every search, replay and filter selection of
// the request. BestPlanM2, BestPlanM3 and PlanM3 build a fresh one per
// call, and so does the viewplan.ImproveWithFilters facade (PlanM2, a
// pure replay, uses none).
//
// Each distinct view tuple is numbered once, and an M2 subset is keyed by
// the numbers of its tuples (subsetKey): IR(S) is the join of the set S,
// the same rows under any order and in any rewriting holding S. Its
// column order is that of the chain that first built it, which nothing
// reads: JoinCount and JoinStep find columns by name and BestPlanM2Below
// takes step schemas from engine.JoinSchema. An M3 generalized
// supplementary relation is keyed by gsrKey.
//
// The zero value is an empty memo. A Memo serves one request over one
// unchanged database: nothing invalidates it, and it is not safe for
// concurrent use.
type Memo struct {
	tuples map[string]int32 // view tuple (atom string) → its number, from 1
	sizes  map[subsetKey]int
	rels   map[subsetKey]*engine.VarRelation
	gsrs   map[string]*engine.VarRelation
}

// subsetKey names a subgoal subset by its tuples' numbers in the order
// of their atom strings, zero-padded: comparable, and built without
// allocating.
type subsetKey [maxDPSubgoals]int32

// maskKeyer names the subgoal subsets of one rewriting body in the memo.
type maskKeyer struct {
	atoms  []string // atom string per body index
	ids    []int32  // the memo's number per body index
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

// keyer returns body's keyer with its tuples numbered, new ones first
// seen here.
func (m *Memo) keyer(body []cq.Atom) *maskKeyer {
	if m.tuples == nil {
		m.tuples = make(map[string]int32)
		m.sizes = make(map[subsetKey]int)
		m.rels = make(map[subsetKey]*engine.VarRelation)
		m.gsrs = make(map[string]*engine.VarRelation)
	}
	k := newMaskKeyer(body)
	k.ids = make([]int32, len(body))
	for i, s := range k.atoms {
		id, ok := m.tuples[s]
		if !ok {
			id = int32(len(m.tuples) + 1)
			m.tuples[s] = id
		}
		k.ids[i] = id
	}
	return k
}

// subset names the join of the subgoals in mask.
func (k *maskKeyer) subset(mask int) subsetKey {
	var key subsetKey
	n := 0
	for _, i := range k.sorted {
		if mask&(1<<uint(i)) != 0 {
			key[n] = k.ids[i]
			n++
		}
	}
	return key
}

// memoJoin is db.JoinStep(cur, atom, keep) through tab under key, the
// name of the result. The relation handed back is shared: callers treat
// it as immutable.
func memoJoin[K comparable](db *engine.Database, tab map[K]*engine.VarRelation, key K, cur *engine.VarRelation, atom cq.Atom, keep []cq.Var) (*engine.VarRelation, error) {
	vr := tab[key]
	tickMemo(db.Tracer(), vr != nil)
	if vr != nil {
		return vr, nil
	}
	vr, err := db.JoinStep(cur, atom, keep)
	if err == nil {
		tab[key] = vr
	}
	return vr, err
}

// tickMemo counts one memo lookup under the ir_cache counters.
func tickMemo(tr *obs.Tracer, hit bool) {
	if hit {
		tr.Add(obs.CtrIRCacheHit, 1)
	} else {
		tr.Add(obs.CtrIRCacheMiss, 1)
	}
}
