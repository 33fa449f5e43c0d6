package containment

import (
	"viewplan/internal/cq"
)

// Minimize returns the minimal equivalent of q (its core): an equivalent
// query from which no subgoal can be removed without losing equivalence.
// The result is a fresh query; q is not modified.
//
// Correctness rests on the classical fact that a non-minimal conjunctive
// query always has a single redundant subgoal: if q ≡ q′ for some proper
// sub-body q′, then the witnessing endomorphism h: q → q′ misses at
// least one subgoal a, and q minus {a} is still equivalent to q (the
// identity gives q ⊑ q−{a}; h gives q−{a} ⊑ q). So iterated single-subgoal
// removal reaches the core.
func Minimize(q *cq.Query) *cq.Query {
	cur := q.DedupBody()
	// Probe candidates share cur's head and comparisons and build their
	// body into one reused buffer: FindContainmentMapping only reads
	// its arguments, so the per-candidate deep clone the obvious
	// RemoveSubgoal loop would make is pure allocation churn on what is
	// a planner hot path (every query and view minimizes through here).
	buf := make([]cq.Atom, 0, len(cur.Body))
	cand := &cq.Query{Head: cur.Head, Comparisons: cur.Comparisons}
	probe := minimizeProber(cand)
	for {
		removed := false
		for i := 0; i < len(cur.Body) && len(cur.Body) > 1; i++ {
			cand.Body = append(append(buf[:0], cur.Body[:i]...), cur.Body[i+1:]...)
			// cur ⊑ cand holds trivially; equivalence needs cand ⊑ cur,
			// i.e. a containment mapping from cur to cand.
			if probe(cur) {
				cur = &cq.Query{
					Head:        cur.Head,
					Body:        append([]cq.Atom(nil), cand.Body...),
					Comparisons: cur.Comparisons,
				}
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}

// IsMinimal reports whether q has no redundant subgoals (q is its own
// core, up to exact duplicates).
func IsMinimal(q *cq.Query) bool {
	d := q.DedupBody()
	if len(d.Body) != len(q.Body) {
		return false
	}
	buf := make([]cq.Atom, 0, len(d.Body))
	cand := &cq.Query{Head: d.Head, Comparisons: d.Comparisons}
	probe := minimizeProber(cand)
	for i := 0; i < len(d.Body) && len(d.Body) > 1; i++ {
		cand.Body = append(append(buf[:0], d.Body[:i]...), d.Body[i+1:]...)
		if probe(d) {
			return false
		}
	}
	return true
}

// minimizeProber returns the per-candidate containment probe for the
// removal loops above: does a containment mapping from cur onto cand
// exist? Every candidate shares cand's head, so the comparison-free case
// seeds the head identity once and runs the existence-only frame search
// per probe — no witness substitution, no per-probe seed map. With
// comparisons the implication filter needs the full mapping and each
// probe falls through to FindContainmentMapping.
func minimizeProber(cand *cq.Query) func(cur *cq.Query) bool {
	if len(cand.Comparisons) > 0 {
		return func(cur *cq.Query) bool {
			_, ok := FindContainmentMapping(cur, cand)
			return ok
		}
	}
	// The head maps onto itself: each head variable seeds to itself and
	// constants always match, so the seed never fails and never changes.
	init := cq.NewSubst()
	for _, t := range cand.Head.Args {
		if v, ok := t.(cq.Var); ok {
			init[v] = v
		}
	}
	return func(cur *cq.Query) bool {
		return hasSeededMapping(cur, cand, init)
	}
}

// CanonicalDB is the canonical (frozen) database of a query: each variable
// replaced by a distinct fresh constant, body subgoals become the only
// facts. Thaw maps the introduced constants back to the original
// variables, so results computed over the facts can be restored to the
// query's variable space.
type CanonicalDB struct {
	// Facts are the frozen body subgoals.
	Facts []cq.Atom
	// Freeze maps each query variable to its frozen constant.
	Freeze cq.Subst
	// Thaw maps each frozen constant back to the variable it came from.
	Thaw map[cq.Const]cq.Var
	// FrozenHead is the query head with variables frozen.
	FrozenHead cq.Atom

	// target is the Facts compiled for homomorphism search, built
	// eagerly by FreezeQuery so a CanonicalDB is read-only after
	// construction.
	target *HomTarget
}

// FreezePrefix is the prefix of constants introduced by Freeze; it is
// chosen to be implausible in user input so thawing is unambiguous.
const FreezePrefix = "_k·"

// FreezeQuery builds the canonical database D_Q of q. Each variable X is
// replaced by the constant FreezePrefix+X; constants already in q are kept
// as themselves (and are not thawed back).
func FreezeQuery(q *cq.Query) *CanonicalDB {
	freeze := cq.NewSubst()
	thaw := make(map[cq.Const]cq.Var)
	//viewplan:nondet-ok thaw is keyed by FreezePrefix+v, an injective image of the range key, so iterations write disjoint entries in any order
	for v := range q.Vars() {
		c := cq.Const(FreezePrefix + string(v))
		freeze[v] = c
		thaw[c] = v
	}
	facts := cq.DedupAtoms(freeze.Atoms(q.Body))
	return &CanonicalDB{
		// A database is a set of facts: duplicate body subgoals freeze to
		// one fact.
		Facts:      facts,
		Freeze:     freeze,
		Thaw:       thaw,
		FrozenHead: freeze.Atom(q.Head),
		target:     NewHomTarget(facts),
	}
}

// Target returns the Facts compiled for homomorphism search, compiling
// on demand for databases built by hand rather than by FreezeQuery.
// The on-demand path does not memoize: a hand-built CanonicalDB makes
// no immutability promise, so caching here could race.
func (db *CanonicalDB) Target() *HomTarget {
	if db.target != nil {
		return db.target
	}
	return NewHomTarget(db.Facts)
}

// ThawTerm converts a frozen constant back to its variable; other terms
// pass through unchanged.
func (db *CanonicalDB) ThawTerm(t cq.Term) cq.Term {
	if c, ok := t.(cq.Const); ok {
		if v, ok := db.Thaw[c]; ok {
			return v
		}
	}
	return t
}

// ThawAtom thaws every argument of a.
func (db *CanonicalDB) ThawAtom(a cq.Atom) cq.Atom {
	args := make([]cq.Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = db.ThawTerm(t)
	}
	return cq.Atom{Pred: a.Pred, Args: args}
}

// Evaluate computes the answers of query over the canonical database's
// facts: one head atom per homomorphism of the query body into the facts,
// deduplicated.
func (db *CanonicalDB) Evaluate(query *cq.Query) []cq.Atom {
	var out []cq.Atom
	db.EvaluateFunc(query, func(args []cq.Term) bool {
		a := cq.Atom{Pred: query.Head.Pred, Args: args}
		if !cq.ContainsAtom(out, a) {
			out = append(out, cq.Atom{Pred: a.Pred, Args: append([]cq.Term(nil), args...)})
		}
		return true
	})
	return out
}

// EvaluateFunc streams the answers of query over the canonical database:
// for every homomorphism of the query body into the facts, yield receives
// the image of the head's arguments. The slice is a buffer reused across
// calls — callers that keep an answer must copy it — and duplicate images
// are not filtered, which lets callers that dedup anyway (view-tuple
// computation) defer all per-answer allocation until an answer is known
// to be kept. Returning false from yield stops the enumeration.
func (db *CanonicalDB) EvaluateFunc(query *cq.Query, yield func(args []cq.Term) bool) {
	t := db.Target()
	args := make([]cq.Term, len(query.Head.Args))
	t.HomsFrame(query.Body, nil, func(h cq.ISubst) bool {
		for i, arg := range query.Head.Args {
			args[i] = h.Apply(arg)
		}
		return yield(args)
	})
}
