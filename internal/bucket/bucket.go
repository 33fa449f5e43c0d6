// Package bucket implements a bucket-algorithm baseline [Levy, Rajaraman
// & Ordille, VLDB 1996] adapted to the closed-world equivalent-rewriting
// setting of the paper. For each query subgoal it collects the view
// tuples whose expansion can cover the subgoal (the bucket); candidate
// rewritings are elements of the buckets' Cartesian product, each checked
// with a containment test. The paper's Section 1.2/4.3 critique applies:
// the Cartesian product explodes and most candidates fail the containment
// test, which is exactly what the comparison benchmarks measure.
package bucket

import (
	"viewplan/internal/containment"
	"viewplan/internal/cq"
	"viewplan/internal/views"
)

// Options tunes the search.
type Options struct {
	// MaxRewritings caps the number of rewritings returned (0 = all).
	MaxRewritings int
	// MaxCandidates caps the number of Cartesian-product candidates
	// examined, as a safety valve (0 = unlimited).
	MaxCandidates int
}

// Rewritings runs the bucket algorithm, returning equivalent rewritings
// (with duplicate literals removed). The rewritings are not guaranteed
// minimal; callers minimize afterwards if they need LMRs.
func Rewritings(q *cq.Query, vs *views.Set, opts Options) ([]*cq.Query, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	minQ := containment.Minimize(q)
	tuples := views.ComputeTuples(minQ, vs, nil)
	gen := cq.NewFreshGen("_B", minQ.Vars())

	// Build one bucket per query subgoal: view tuples whose expansion has
	// an atom the subgoal maps to (with head-variable discipline: a
	// distinguished query variable must not map to an existential
	// variable of the expansion).
	headVars := minQ.HeadVars()
	buckets := make([][]views.Tuple, len(minQ.Body))
	for ti, vt := range tuples {
		body, existentials, err := vt.Expansion(gen)
		if err != nil {
			return nil, err
		}
		exSet := make(cq.VarSet, len(existentials))
		for _, v := range existentials {
			exSet.Add(v)
		}
		for gi, g := range minQ.Body {
			if coversSubgoal(g, body, headVars, exSet) {
				buckets[gi] = append(buckets[gi], tuples[ti])
			}
		}
	}
	for _, b := range buckets {
		if len(b) == 0 {
			return nil, nil // some subgoal has no candidate view
		}
	}

	var out []*cq.Query
	seen := make(map[string]struct{})
	candidates := 0
	choice := make([]views.Tuple, len(buckets))
	var rec func(i int) bool
	rec = func(i int) bool {
		if opts.MaxCandidates > 0 && candidates >= opts.MaxCandidates {
			return false
		}
		if i == len(buckets) {
			candidates++
			body := make([]cq.Atom, 0, len(choice))
			for _, vt := range choice {
				body = append(body, vt.Atom.Clone())
			}
			p := &cq.Query{Head: minQ.Head.Clone(), Body: cq.DedupAtoms(body)}
			key := cq.CanonicalKey(p)
			if _, dup := seen[key]; dup {
				return true
			}
			seen[key] = struct{}{}
			if vs.IsEquivalentRewriting(p, minQ) {
				out = append(out, p)
				if opts.MaxRewritings > 0 && len(out) >= opts.MaxRewritings {
					return false
				}
			}
			return true
		}
		for _, vt := range buckets[i] {
			choice[i] = vt
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return out, nil
}

// coversSubgoal reports whether query subgoal g maps into the expansion
// body under the bucket discipline.
func coversSubgoal(g cq.Atom, body []cq.Atom, headVars cq.VarSet, exSet cq.VarSet) bool {
	for _, cand := range body {
		if cand.Pred != g.Pred || cand.Arity() != g.Arity() {
			continue
		}
		ok := true
		bind := cq.NewSubst()
		for i := range g.Args {
			src, dst := g.Args[i], cand.Args[i]
			switch s := src.(type) {
			case cq.Const:
				if s != dst {
					ok = false
				}
			case cq.Var:
				if headVars.Has(s) {
					if dv, isVar := dst.(cq.Var); isVar && exSet.Has(dv) {
						ok = false // distinguished var hidden by the view
						break
					}
				}
				if !bind.Bind(s, dst) {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
