package cost

import (
	"fmt"
	"math"
	"strings"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
	"viewplan/internal/obs"
	"viewplan/internal/views"
)

// DropStrategy selects how an M3 plan decides which attributes to drop
// after each step.
type DropStrategy int

const (
	// SupplementaryRelations is the classical rule [Beeri & Ramakrishnan]:
	// drop a variable once it appears neither in the head nor in any
	// subsequent subgoal.
	SupplementaryRelations DropStrategy = iota
	// RenamingHeuristic is the paper's Section 6.2 rule: additionally drop
	// a variable used by a later subgoal when renaming its occurrences in
	// the processed prefix to a fresh variable leaves the rewriting
	// equivalent to the query. Dropping such a variable removes an
	// equality comparison from the later join, which the simulation
	// honours (the variable rebinds freshly).
	RenamingHeuristic
)

// String names the strategy.
func (s DropStrategy) String() string {
	if s == RenamingHeuristic {
		return "renaming-heuristic"
	}
	return "supplementary-relations"
}

// Drops computes the per-step drop annotation X_i for rewriting p
// processed in the given order. For the RenamingHeuristic, q and vs
// provide the original query and view definitions the equivalence test
// runs against. The cumulative effect of earlier renames is carried
// forward, so each additional drop is tested against the already-renamed
// rewriting (dropping two individually-safe variables must be jointly
// safe).
func Drops(strategy DropStrategy, p *cq.Query, order []int, q *cq.Query, vs *views.Set) ([][]cq.Var, error) {
	n := len(p.Body)
	if order == nil {
		order = identityOrder(n)
	}
	if err := validOrder(order, n); err != nil {
		return nil, err
	}
	rule, err := newDropRule(strategy, p, q, vs)
	if err != nil {
		return nil, err
	}
	// Work on the body in execution order.
	work := p.KeepSubgoals(order).Body
	drops := make([][]cq.Var, n)
	retained := make(cq.VarSet)
	var done []cq.Atom
	for i := 0; i < n; i++ {
		drops[i], done = rule.step(append(done, work[i]), work[i+1:], retained)
	}
	return drops, nil
}

// dropRule decides the drop set of one M3 step. The set depends on the
// ordered prefix of subgoals processed (through the renames it carries)
// and on the *set* of subgoals still to come, not on their order — which
// is what lets BestPlanM3Below compute it once per prefix.
type dropRule struct {
	strategy DropStrategy
	p, q     *cq.Query
	vs       *views.Set
	head     cq.VarSet
	gen      *cq.FreshGen
}

func newDropRule(strategy DropStrategy, p, q *cq.Query, vs *views.Set) (*dropRule, error) {
	if strategy == RenamingHeuristic && (q == nil || vs == nil) {
		return nil, fmt.Errorf("cost: the renaming heuristic needs the original query and views")
	}
	return &dropRule{strategy: strategy, p: p, q: q, vs: vs, head: p.HeadVars(), gen: cq.NewFreshGen("_D", p.Vars())}, nil
}

// step computes the drop set after the last subgoal of done, where done
// is the processed prefix in execution order with earlier steps' renames
// applied and rest the subgoals still to come. retained gains the
// subgoal's variables and loses the dropped ones. It returns the drops
// and done with this step's renames applied; done itself is not
// modified.
func (r *dropRule) step(done, rest []cq.Atom, retained cq.VarSet) ([]cq.Var, []cq.Atom) {
	done[len(done)-1].Vars(retained)
	usedLater := make(cq.VarSet)
	for _, a := range rest {
		a.Vars(usedLater)
	}
	var drops []cq.Var
	for _, v := range retained.Sorted() {
		if r.head.Has(v) {
			continue
		}
		if !usedLater.Has(v) {
			// Classical supplementary-relation rule.
			drops = append(drops, v)
			delete(retained, v)
			continue
		}
		if r.strategy != RenamingHeuristic {
			continue
		}
		// Rename v's occurrences in the processed prefix; if the
		// renamed rewriting is still equivalent to the query, v can be
		// dropped here (the later occurrence rebinds independently).
		renamed := cq.Subst{v: r.gen.Fresh()}.Atoms(done)
		cand := &cq.Query{Head: r.p.Head, Body: append(renamed[:len(renamed):len(renamed)], rest...), Comparisons: r.p.Comparisons}
		if r.vs.IsEquivalentRewriting(cand, r.q) {
			done = renamed
			drops = append(drops, v)
			delete(retained, v)
		}
	}
	return drops, done
}

// gsrStep joins cur with atom and projects the result onto keep: one
// generalized supplementary relation. Generalized supplementary
// relations are history-dependent (once a variable is dropped, a later
// occurrence rebinds freshly), so the IR-cache key is the ordered chain
// of (subgoal, retained variables) — only plans sharing an identical
// prefix reuse a GSR. It returns the relation and the chain key extended
// by this step.
func gsrStep(db *engine.Database, chain string, cur *engine.VarRelation, atom cq.Atom, keep []cq.Var) (*engine.VarRelation, string, error) {
	if db.IRCache() == nil {
		next, err := db.JoinStep(cur, atom, keep)
		return next, chain, err
	}
	var b strings.Builder
	b.WriteString(chain)
	b.WriteByte(0)
	b.WriteString(atom.String())
	b.WriteByte(1)
	for _, v := range keep {
		b.WriteString(string(v))
		b.WriteByte(2)
	}
	chain = b.String()
	if vr, ok := db.IRLookup(chain, engine.Schema(keep)); ok {
		return vr, chain, nil
	}
	next, err := db.JoinStep(cur, atom, keep)
	if err != nil {
		return nil, chain, err
	}
	db.IRStore(chain, next)
	return next, chain, nil
}

// m3Chain is the IR-cache key of the empty prefix.
const m3Chain = "m3"

// PlanM3 simulates the M3 physical plan of p over db with the given order
// and per-step drop annotations, measuring the generalized supplementary
// relation GSR_i after each step. Joins match only on retained shared
// variables: once a variable is dropped, a later subgoal mentioning it
// rebinds it freshly (the equality comparison is gone), exactly the
// semantics of the Section 6.2 heuristic.
func PlanM3(db *engine.Database, p *cq.Query, order []int, drops [][]cq.Var) (*Plan, error) {
	n := len(p.Body)
	if order == nil {
		order = identityOrder(n)
	}
	if err := validOrder(order, n); err != nil {
		return nil, err
	}
	if len(drops) != n {
		return nil, fmt.Errorf("cost: %d drop annotations for %d subgoals", len(drops), n)
	}
	sizes, err := viewSizes(db, p)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Model: M3, Rewriting: p.Clone(), Order: append([]int(nil), order...)}
	cur := engine.UnitVarRelation()
	retained := make(cq.VarSet)
	chain := m3Chain
	for step, idx := range order {
		p.Body[idx].Vars(retained)
		for _, v := range drops[step] {
			delete(retained, v)
		}
		keep := retained.Sorted()
		cur, chain, err = gsrStep(db, chain, cur, p.Body[idx], keep)
		if err != nil {
			return nil, err
		}
		plan.Steps = append(plan.Steps, Step{
			Subgoal:    p.Body[idx].Clone(),
			ViewSize:   sizes[idx],
			Dropped:    append([]cq.Var(nil), drops[step]...),
			Retained:   keep,
			ResultSize: cur.Size(),
		})
		plan.Cost += sizes[idx] + cur.Size()
	}
	return plan, nil
}

// maxM3Subgoals bounds the order search of BestPlanM3.
const maxM3Subgoals = 8

// BestPlanM3 finds a minimum-cost M3 plan for p over db under the given
// drop strategy: the search of BestPlanM3Below with no bound.
func BestPlanM3(db *engine.Database, p *cq.Query, strategy DropStrategy, q *cq.Query, vs *views.Set) (*Plan, error) {
	return BestPlanM3Below(db, p, strategy, q, vs, math.MaxInt)
}

// BestPlanM3Below finds a minimum-cost M3 plan for p over db among the
// plans that cost less than bound; it returns a nil plan when there is
// none. Under M3 the intermediate sizes depend on the order (drops
// differ per order), so no subset search applies: it is a depth-first
// branch-and-bound over subgoal prefixes. A prefix fixes its drop
// annotations (see dropRule) and its generalized supplementary
// relations, so each is computed once per prefix and shared by every
// order below it, and a prefix whose cost so far plus the view sizes
// still to be paid reaches the incumbent — the bound, then the best
// complete order found — is cut. Among equal-cost orders the
// lexicographically first wins.
func BestPlanM3Below(db *engine.Database, p *cq.Query, strategy DropStrategy, q *cq.Query, vs *views.Set, bound int) (*Plan, error) {
	n := len(p.Body)
	if n == 0 {
		return nil, fmt.Errorf("cost: empty rewriting body")
	}
	if n > maxM3Subgoals {
		return nil, fmt.Errorf("cost: %d subgoals exceeds the M3 optimizer limit of %d", n, maxM3Subgoals)
	}
	tr := db.Tracer()
	sp := tr.Start(obs.PhaseM3Optimizer)
	defer sp.End()
	rule, err := newDropRule(strategy, p, q, vs)
	if err != nil {
		return nil, err
	}
	sizes, err := viewSizes(db, p)
	if err != nil {
		return nil, err
	}
	rest := 0
	for _, s := range sizes {
		rest += s
	}
	s := m3Search{db: db, p: p, sizes: sizes, rule: rule, bound: bound}
	err = s.extend(m3Prefix{retained: make(cq.VarSet), gsr: engine.UnitVarRelation(), chain: m3Chain}, rest)
	tr.Add(obs.CtrOptOrders, s.orders)
	return s.best, err
}

// m3Search is the state of one branch-and-bound: the incumbent and the
// order and steps of the prefix being extended.
type m3Search struct {
	db    *engine.Database
	p     *cq.Query
	sizes []int
	rule  *dropRule

	bound  int   // only plans cheaper than this are of interest
	best   *Plan // the plan that set bound, nil while it is the caller's
	orders int64 // complete orders reached

	order []int
	steps []Step
}

// m3Prefix is what a prefix of subgoals determines for the steps below
// it.
type m3Prefix struct {
	used     int       // bitmask of the subgoals in the prefix
	done     []cq.Atom // those subgoals in order, drop renames applied
	retained cq.VarSet // schema of gsr
	gsr      *engine.VarRelation
	chain    string // IR-cache key of gsr
	cost     int
}

// extend tries every subgoal not in the prefix as its next step. rest is
// the sum of the view sizes of those subgoals.
func (s *m3Search) extend(pre m3Prefix, rest int) error {
	body := s.p.Body
	if len(s.order) == len(body) {
		s.orders++
		if pre.cost < s.bound {
			s.bound = pre.cost
			s.best = &Plan{
				Model:     M3,
				Rewriting: s.p.Clone(),
				Order:     append([]int(nil), s.order...),
				Steps:     append([]Step(nil), s.steps...),
				Cost:      pre.cost,
			}
		}
		return nil
	}
	for g := range body {
		// The incumbent may have dropped since the last sibling.
		if pre.cost+rest >= s.bound {
			return nil
		}
		if pre.used&(1<<uint(g)) != 0 {
			continue
		}
		next := m3Prefix{used: pre.used | 1<<uint(g), retained: pre.retained.Union(nil)}
		later := make([]cq.Atom, 0, len(body))
		for j, a := range body {
			if next.used&(1<<uint(j)) == 0 {
				later = append(later, a)
			}
		}
		var drops []cq.Var
		drops, next.done = s.rule.step(append(pre.done[:len(pre.done):len(pre.done)], body[g]), later, next.retained)
		keep := next.retained.Sorted()
		var err error
		if len(s.order)+1 == len(body) {
			// A complete order's last GSR is a prefix of nothing, and
			// complete orders are most of the tree: memoizing them would
			// only hold every one of them until the request ends.
			next.gsr, err = s.db.JoinStep(pre.gsr, body[g], keep)
		} else {
			next.gsr, next.chain, err = gsrStep(s.db, pre.chain, pre.gsr, body[g], keep)
		}
		if err != nil {
			return err
		}
		next.cost = pre.cost + s.sizes[g] + next.gsr.Size()
		s.order = append(s.order, g)
		s.steps = append(s.steps, Step{
			Subgoal:    body[g].Clone(),
			ViewSize:   s.sizes[g],
			Dropped:    drops,
			Retained:   keep,
			ResultSize: next.gsr.Size(),
		})
		err = s.extend(next, rest-s.sizes[g])
		s.order, s.steps = s.order[:len(s.order)-1], s.steps[:len(s.steps)-1]
		if err != nil {
			return err
		}
	}
	return nil
}
