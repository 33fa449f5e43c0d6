package cost

import (
	"fmt"
	"math"
	"strconv"
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
	switch s {
	case SupplementaryRelations:
		return "supplementary-relations"
	case RenamingHeuristic:
		return "renaming-heuristic"
	}
	return fmt.Sprintf("DropStrategy(%d)", int(s))
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
// subgoals processed, with the renames earlier drops applied to them, and
// on the set still to come, not on any order: on the search's state.
type dropRule struct {
	strategy DropStrategy
	p, q     *cq.Query
	vs       *views.Set
	head     cq.VarSet
	gen      *cq.FreshGen
}

func newDropRule(strategy DropStrategy, p, q *cq.Query, vs *views.Set) (*dropRule, error) {
	if strategy != SupplementaryRelations && strategy != RenamingHeuristic {
		return nil, fmt.Errorf("cost: unknown drop strategy %v", strategy)
	}
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

// PlanM3 simulates the M3 physical plan of p over db with the given order
// and per-step drop annotations, measuring the generalized supplementary
// relation GSR_i after each step. Joins match only on retained shared
// variables: once a variable is dropped, a later subgoal mentioning it
// rebinds it freshly (the equality comparison is gone), exactly the
// semantics of the Section 6.2 heuristic. With an IR cache the GSRs go
// through it under the keys BestPlanM3Below's search gives them.
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
	keyer, vars := newMaskKeyer(p.Body), p.Vars()
	gen := cq.NewFreshGen("_D", vars)
	atoms := p.Body // the prefix with the drops' renames applied
	cur := engine.UnitVarRelation()
	retained := make(cq.VarSet)
	mask := 0
	for step, idx := range order {
		mask |= 1 << uint(idx)
		p.Body[idx].Vars(retained)
		for _, v := range drops[step] {
			delete(retained, v)
		}
		keep := retained.Sorted()
		atoms = renameDropped(atoms, mask, drops[step], gen)
		var key string
		if step < n-1 { // the full set's GSR is a prefix of nothing
			key = keyer.gsrKey(mask, atoms, keep, vars)
		}
		cur, err = joinStepCached(db, key, cur, p.Body[idx], keep)
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

// renameDropped applies one step's renames to atoms, the body with the
// earlier steps' renames applied: a variable dropped after joining the
// subgoals of mask that a later subgoal still uses rebinds there, so its
// occurrences in mask are renamed apart, as the drop rule renames them.
func renameDropped(atoms []cq.Atom, mask int, dropped []cq.Var, gen *cq.FreshGen) []cq.Atom {
	later := make(cq.VarSet)
	for i, a := range atoms {
		if mask&(1<<uint(i)) == 0 {
			a.Vars(later)
		}
	}
	for _, v := range dropped {
		if later.Has(v) {
			sub := cq.Subst{v: gen.Fresh()}
			atoms = append([]cq.Atom(nil), atoms...)
			for i := range atoms {
				if mask&(1<<uint(i)) != 0 {
					atoms[i] = sub.Atom(atoms[i])
				}
			}
		}
	}
	return atoms
}

// gsrKey names a generalized supplementary relation: the subgoals of
// mask, with the drops' renames applied, in the order of the original
// atoms' strings, and the retained variables. A name outside vars is a
// rename's fresh variable and is numbered by first occurrence, so the
// prefixes that rename the same occurrences share the key whatever names
// their renames drew. The key determines the relation, π_keep(⋈ atoms),
// so it is the IR-cache key across orders and rewritings and the name of
// the search's state within its subgoal set.
func (k *maskKeyer) gsrKey(mask int, atoms []cq.Atom, keep []cq.Var, vars cq.VarSet) string {
	var b strings.Builder
	b.WriteString("m3")
	canon := cq.Subst{}
	for _, i := range k.sorted {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		for _, t := range atoms[i].Args {
			if v, ok := t.(cq.Var); ok && !vars.Has(v) && canon[v] == nil {
				canon[v] = cq.Var("\x03" + strconv.Itoa(len(canon)))
			}
		}
		b.WriteByte(0)
		b.WriteString(canon.Atom(atoms[i]).String())
	}
	b.WriteByte(1)
	for _, v := range keep {
		b.WriteString(string(v))
		b.WriteByte(2)
	}
	return b.String()
}

// BestPlanM3 finds a minimum-cost M3 plan for p over db under the given
// drop strategy: the search of BestPlanM3Below with no bound.
func BestPlanM3(db *engine.Database, p *cq.Query, strategy DropStrategy, q *cq.Query, vs *views.Set) (*Plan, error) {
	return BestPlanM3Below(db, p, strategy, q, vs, math.MaxInt)
}

// BestPlanM3Below finds a minimum-cost M3 plan for p over db among the
// plans that cost less than bound; it returns a nil plan when there is
// none. The order is the lattice search's over the drop rule's states: a
// state's successor is named by running the rule for one more subgoal
// and sized by materializing its GSR through the IR cache under gsrKey.
// The plan is PlanM3's replay of the order found, which the cache serves
// from the search's own GSRs.
func BestPlanM3Below(db *engine.Database, p *cq.Query, strategy DropStrategy, q *cq.Query, vs *views.Set, bound int) (*Plan, error) {
	tr := db.Tracer()
	sp := tr.Start(obs.PhaseM3Optimizer)
	defer sp.End()
	rule, err := newDropRule(strategy, p, q, vs)
	if err != nil {
		return nil, err
	}
	_, irBound, err := searchBound(db, p, bound)
	if irBound <= 0 {
		return nil, err
	}
	m := &m3Model{lattice: lattice{n: len(p.Body), ids: map[stateKey]int32{}}, db: db, rule: rule, keyer: newMaskKeyer(p.Body), vars: p.Vars()}
	m.model = m
	m.atoms, m.keep = [][]cq.Atom{p.Body}, [][]cq.Var{nil}
	_, order, err := m.order(tr, irBound)
	if order == nil {
		return nil, err
	}
	drops, err := Drops(strategy, p, order, q, vs)
	if err != nil {
		return nil, err
	}
	return PlanM3(db, p, order, drops)
}

// m3Model names the lattice's states by the drop rule and sizes them by
// their GSRs.
type m3Model struct {
	lattice
	db    *engine.Database
	rule  *dropRule
	keyer *maskKeyer
	vars  cq.VarSet // the rewriting's own variables

	// Per state: the body with the state's renames applied, and the
	// variables its GSR retains; then the same for the state the last key
	// call named, which the measure call that follows appends if it is new.
	atoms     [][]cq.Atom
	keep      [][]cq.Var
	nextAtoms []cq.Atom
	nextKeep  []cq.Var
}

// key runs the drop rule for joining g after state st and names the
// state it reaches by gsrKey.
func (m *m3Model) key(st, g int) string {
	mask := m.mask(st) | 1<<uint(g)
	var done, rest []cq.Atom
	for i, a := range m.atoms[st] {
		if mask&(1<<uint(i)) == 0 {
			rest = append(rest, a)
		} else if i != g {
			done = append(done, a)
		}
	}
	retained := make(cq.VarSet)
	for _, v := range m.keep[st] {
		retained.Add(v)
	}
	drops, _ := m.rule.step(append(done, m.rule.p.Body[g]), rest, retained)
	m.nextAtoms, m.nextKeep = renameDropped(m.atoms[st], mask, drops, m.rule.gen), retained.Sorted()
	return m.keyer.gsrKey(mask, m.nextAtoms, m.nextKeep, m.vars)
}

// measure materializes the GSR of the new state next. The full set's GSR
// is a prefix of nothing: it is sized, not memoized.
func (m *m3Model) measure(st, g, next, limit int) (int, error) {
	m.atoms, m.keep = append(m.atoms, m.nextAtoms), append(m.keep, m.nextKeep)
	key := m.keys[next].key
	if m.keys[next].mask == m.full {
		key = ""
	}
	rel, err := joinStepCached(m.db, key, m.rels[st], m.rule.p.Body[g], m.keep[next])
	if err != nil {
		return 0, err
	}
	m.rels[next] = rel
	return rel.Size(), nil
}
