// Package workload generates the query/view families of the paper's
// experimental section (Section 7): star queries, chain queries, and
// random queries, with the same declared knobs — number of base
// relations, number of views, number of subgoals per view (1–3, random),
// number of query subgoals (8 in the paper), and the
// distinguished-variable configuration (all distinguished, or one
// nondistinguished variable). Queries without rewritings are detected and
// skipped by the experiment driver, as in the paper.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"viewplan/internal/cq"
	"viewplan/internal/views"
)

// Shape selects the query family.
type Shape int

const (
	// Star queries: every subgoal shares a central variable,
	// e_i(X0, X_i) for i = 1..n.
	Star Shape = iota
	// Chain queries: binary relations linked head to tail,
	// e_i(X_{i-1}, X_i).
	Chain
	// Random queries: subgoals over random relations with random variable
	// sharing; views are renamed random sub-bodies of the query.
	Random
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case Star:
		return "star"
	case Chain:
		return "chain"
	case Random:
		return "random"
	}
	return "shape" + strconv.Itoa(int(s))
}

// Config holds the generator parameters. Zero fields get the paper's
// defaults via Normalize.
type Config struct {
	Shape Shape
	// QuerySubgoals is the body size of the query (paper: 8).
	QuerySubgoals int
	// NumViews is the number of views to generate.
	NumViews int
	// MaxViewSubgoals bounds the per-view body size (paper: 1–3).
	MaxViewSubgoals int
	// NumBaseRelations is the size of the relation vocabulary views draw
	// from; relations beyond the query's own yield views with no view
	// tuples, as with the paper's random generator.
	NumBaseRelations int
	// Arity is the relation arity for Random shape (Star and Chain are
	// binary).
	Arity int
	// Nondistinguished is the number of query variables made existential
	// (paper: 0 or 1). Views hide the matching variable with probability
	// 1/2 when their body contains it internally; single-subgoal views
	// keep all variables distinguished, as in the paper.
	Nondistinguished int
	// Seed drives the deterministic random source.
	Seed int64
}

// Normalize fills zero fields with the paper's defaults.
func (c Config) Normalize() Config {
	if c.QuerySubgoals == 0 {
		c.QuerySubgoals = 8
	}
	if c.MaxViewSubgoals == 0 {
		c.MaxViewSubgoals = 3
	}
	if c.NumBaseRelations == 0 {
		c.NumBaseRelations = 2 * c.QuerySubgoals
	}
	if c.Arity == 0 {
		c.Arity = 2
	}
	return c
}

// Instance is one generated query with its views.
type Instance struct {
	Query *cq.Query
	Views *views.Set
	// HiddenQueryVars lists the query variables made nondistinguished.
	HiddenQueryVars []cq.Var
}

// Generate produces a deterministic instance for the configuration.
func Generate(cfg Config) (*Instance, error) {
	cfg = cfg.Normalize()
	if cfg.QuerySubgoals < 1 || cfg.NumViews < 0 {
		return nil, fmt.Errorf("workload: invalid config %+v", cfg)
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	switch cfg.Shape {
	case Star:
		return genStar(cfg, rnd)
	case Chain:
		return genChain(cfg, rnd)
	case Random:
		return genRandom(cfg, rnd)
	}
	return nil, fmt.Errorf("workload: unknown shape %v", cfg.Shape)
}

func relName(i int) string { return "e" + strconv.Itoa(i) }

// ScaleVocab returns the base-relation vocabulary size the scale
// benchmarks pair with a catalog of numViews views. Small catalogs keep
// the 16-relation Fig. 6a vocabulary (so the 200-view world is the
// paper's); larger catalogs widen the vocabulary so
// views spread over many relations the query never mentions — the
// realistic large-deployment shape, and the one the sharded planner's
// candidate prefilter is built for. With a fixed vocabulary, 20k views
// would just be 20k near-duplicates of the same few definitions.
func ScaleVocab(numViews int) int {
	switch {
	case numViews <= 200:
		return 16
	case numViews <= 1000:
		return 64
	case numViews <= 5000:
		return 160
	default:
		return 320
	}
}

// ScaleCatalog generates the star-shaped scale workload: an 8-subgoal
// star query with numViews views over the ScaleVocab(numViews)-relation
// vocabulary, deterministically from seed. This is the catalog family
// the views=1k/5k/20k sweeps (cmd/benchscale, BENCH_scale.json) plan
// against.
func ScaleCatalog(numViews int, seed int64) (*Instance, error) {
	return Generate(Config{
		Shape:            Star,
		QuerySubgoals:    8,
		NumViews:         numViews,
		NumBaseRelations: ScaleVocab(numViews),
		Seed:             seed,
	})
}

// genStar builds q(X0, X1, ..., Xn) :- e_1(X0, X1), ..., e_n(X0, X_n)
// over the first n base relations, with views over random subsets of up
// to MaxViewSubgoals relations from the full vocabulary.
func genStar(cfg Config, rnd *rand.Rand) (*Instance, error) {
	n := cfg.QuerySubgoals
	center := cq.Var("X0")
	body := make([]cq.Atom, n)
	headArgs := []cq.Term{center}
	for i := 1; i <= n; i++ {
		v := cq.Var("X" + strconv.Itoa(i))
		body[i-1] = cq.NewAtom(relName(i), center, v)
		headArgs = append(headArgs, v)
	}
	inst := &Instance{}
	// Hide leaf variables (never the center, which every subgoal needs).
	hidden := make(map[cq.Var]bool)
	for h := 0; h < cfg.Nondistinguished && h < n; h++ {
		for {
			v := cq.Var("X" + strconv.Itoa(1+rnd.Intn(n)))
			if !hidden[v] {
				hidden[v] = true
				inst.HiddenQueryVars = append(inst.HiddenQueryVars, v)
				break
			}
		}
	}
	finalHead := headArgs[:0]
	for _, t := range headArgs {
		if !hidden[t.(cq.Var)] {
			finalHead = append(finalHead, t)
		}
	}
	inst.Query = &cq.Query{Head: cq.Atom{Pred: "q", Args: finalHead}, Body: body}

	defs := make([]*cq.Query, 0, cfg.NumViews)
	for vi := 0; vi < cfg.NumViews; vi++ {
		k := 1 + rnd.Intn(cfg.MaxViewSubgoals)
		rels := pickDistinct(rnd, cfg.NumBaseRelations, k)
		vcenter := cq.Var("Y0")
		vbody := make([]cq.Atom, k)
		vhead := []cq.Term{vcenter}
		var internal []cq.Var
		for j, r := range rels {
			v := cq.Var("Y" + strconv.Itoa(r))
			vbody[j] = cq.NewAtom(relName(r), vcenter, v)
			vhead = append(vhead, v)
			if r <= n && hidden[cq.Var("X"+strconv.Itoa(r))] {
				internal = append(internal, v)
			}
		}
		// Hide the variable matching the query's hidden one half the time
		// (single-subgoal views keep everything distinguished).
		if k >= 2 && len(internal) > 0 && rnd.Intn(2) == 0 {
			drop := internal[rnd.Intn(len(internal))]
			vhead = removeTerm(vhead, drop)
		}
		defs = append(defs, &cq.Query{
			Head: cq.Atom{Pred: "v" + strconv.Itoa(vi), Args: vhead},
			Body: vbody,
		})
	}
	set, err := views.NewSet(defs...)
	if err != nil {
		return nil, err
	}
	inst.Views = set
	return inst, nil
}

// genChain builds q(X0, ..., Xn) :- e_1(X0, X1), ..., e_n(X_{n-1}, X_n)
// with views that are contiguous chain fragments of length up to
// MaxViewSubgoals starting at a random position in the (larger) relation
// vocabulary; fragments outside the query produce no view tuples.
func genChain(cfg Config, rnd *rand.Rand) (*Instance, error) {
	n := cfg.QuerySubgoals
	body := make([]cq.Atom, n)
	headArgs := make([]cq.Term, 0, n+1)
	headArgs = append(headArgs, cq.Var("X0"))
	for i := 1; i <= n; i++ {
		body[i-1] = cq.NewAtom(relName(i), cq.Var("X"+strconv.Itoa(i-1)), cq.Var("X"+strconv.Itoa(i)))
		headArgs = append(headArgs, cq.Var("X"+strconv.Itoa(i)))
	}
	inst := &Instance{}
	hidden := make(map[cq.Var]bool)
	// Hide internal chain variables only (hiding an endpoint rarely leaves
	// rewritings; the paper likewise keeps heads and tails).
	for h := 0; h < cfg.Nondistinguished && h < n-1; h++ {
		for {
			v := cq.Var("X" + strconv.Itoa(1+rnd.Intn(n-1)))
			if !hidden[v] {
				hidden[v] = true
				inst.HiddenQueryVars = append(inst.HiddenQueryVars, v)
				break
			}
		}
	}
	finalHead := headArgs[:0]
	for _, t := range headArgs {
		if !hidden[t.(cq.Var)] {
			finalHead = append(finalHead, t)
		}
	}
	inst.Query = &cq.Query{Head: cq.Atom{Pred: "q", Args: finalHead}, Body: body}

	defs := make([]*cq.Query, 0, cfg.NumViews)
	for vi := 0; vi < cfg.NumViews; vi++ {
		k := 1 + rnd.Intn(cfg.MaxViewSubgoals)
		maxStart := cfg.NumBaseRelations - k
		start := rnd.Intn(maxStart + 1) // fragment covers e_{start+1}..e_{start+k}
		vbody := make([]cq.Atom, k)
		vhead := make([]cq.Term, 0, k+1)
		vhead = append(vhead, cq.Var("Y"+strconv.Itoa(start)))
		var internal []cq.Var
		for j := 0; j < k; j++ {
			a := cq.Var("Y" + strconv.Itoa(start+j))
			b := cq.Var("Y" + strconv.Itoa(start+j+1))
			vbody[j] = cq.NewAtom(relName(start+j+1), a, b)
			vhead = append(vhead, b)
			if j < k-1 && hidden[cq.Var("X"+strconv.Itoa(start+j+1))] {
				internal = append(internal, b)
			}
		}
		if k >= 2 && len(internal) > 0 && rnd.Intn(2) == 0 {
			drop := internal[rnd.Intn(len(internal))]
			vhead = removeTerm(vhead, drop)
		}
		defs = append(defs, &cq.Query{
			Head: cq.Atom{Pred: "v" + strconv.Itoa(vi), Args: vhead},
			Body: vbody,
		})
	}
	set, err := views.NewSet(defs...)
	if err != nil {
		return nil, err
	}
	inst.Views = set
	return inst, nil
}

// genRandom builds a query whose subgoals draw random relations from the
// vocabulary and whose variables chain randomly (each subgoal reuses an
// existing variable with probability 1/2 per position). Views are random
// sub-bodies of the query, renamed apart, with all variables
// distinguished minus the hidden ones.
func genRandom(cfg Config, rnd *rand.Rand) (*Instance, error) {
	n := cfg.QuerySubgoals
	var pool []cq.Var
	nextVar := 0
	newVar := func() cq.Var {
		v := cq.Var("X" + strconv.Itoa(nextVar))
		nextVar++
		pool = append(pool, v)
		return v
	}
	body := make([]cq.Atom, n)
	for i := 0; i < n; i++ {
		args := make([]cq.Term, cfg.Arity)
		for j := range args {
			if len(pool) > 0 && rnd.Intn(2) == 0 {
				args[j] = pool[rnd.Intn(len(pool))]
			} else {
				args[j] = newVar()
			}
		}
		body[i] = cq.Atom{Pred: relName(1 + rnd.Intn(cfg.NumBaseRelations)), Args: args}
	}
	// Head: all variables, minus hidden ones.
	seen := make(cq.VarSet)
	var headArgs []cq.Term
	for _, a := range body {
		for _, t := range a.Args {
			if v, ok := t.(cq.Var); ok && !seen.Has(v) {
				seen.Add(v)
				headArgs = append(headArgs, v)
			}
		}
	}
	inst := &Instance{}
	hidden := make(map[cq.Var]bool)
	for h := 0; h < cfg.Nondistinguished && h < len(headArgs)-1; h++ {
		v := headArgs[rnd.Intn(len(headArgs))].(cq.Var)
		if !hidden[v] {
			hidden[v] = true
			inst.HiddenQueryVars = append(inst.HiddenQueryVars, v)
		}
	}
	finalHead := make([]cq.Term, 0, len(headArgs))
	for _, t := range headArgs {
		if !hidden[t.(cq.Var)] {
			finalHead = append(finalHead, t)
		}
	}
	inst.Query = &cq.Query{Head: cq.Atom{Pred: "q", Args: finalHead}, Body: body}

	defs := make([]*cq.Query, 0, cfg.NumViews)
	for vi := 0; vi < cfg.NumViews; vi++ {
		k := 1 + rnd.Intn(cfg.MaxViewSubgoals)
		idx := pickDistinct(rnd, n, k)
		vbody := make([]cq.Atom, 0, k)
		for _, i := range idx {
			vbody = append(vbody, body[i-1].Clone())
		}
		vq := &cq.Query{Head: cq.Atom{Pred: "v" + strconv.Itoa(vi)}, Body: vbody}
		// Head: every variable of the sub-body (then rename apart).
		vseen := make(cq.VarSet)
		for _, a := range vbody {
			for _, t := range a.Args {
				if v, ok := t.(cq.Var); ok && !vseen.Has(v) {
					vseen.Add(v)
					vq.Head.Args = append(vq.Head.Args, v)
				}
			}
		}
		gen := cq.NewFreshGen("Z", vq.Vars())
		renamed, _ := vq.RenameApart(gen)
		renamed.Head.Pred = vq.Head.Pred
		defs = append(defs, renamed)
	}
	set, err := views.NewSet(defs...)
	if err != nil {
		return nil, err
	}
	inst.Views = set
	return inst, nil
}

// pickDistinct returns k distinct integers in [1, n], sorted.
func pickDistinct(rnd *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rnd.Perm(n)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = perm[i] + 1
	}
	// Insertion sort (k ≤ 3).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func removeTerm(ts []cq.Term, v cq.Var) []cq.Term {
	out := ts[:0]
	for _, t := range ts {
		if t != v {
			out = append(out, t)
		}
	}
	return out
}
