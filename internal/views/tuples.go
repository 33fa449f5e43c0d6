package views

import (
	"fmt"

	"viewplan/internal/containment"
	"viewplan/internal/cq"
)

// Tuple is a view tuple of a query Q given views V (Section 3.3): the
// result of applying a view definition to the canonical database of Q,
// with the frozen constants restored to Q's variables. Its Atom therefore
// uses only variables of Q and constants.
//
// Example (car-loc-part): applying v1(M,D,C) :- car(M,D), loc(D,C) to the
// canonical database of the query yields the view tuple v1(M, a, C).
type Tuple struct {
	// View is the view this tuple comes from.
	View *View
	// Atom is the view-tuple literal, e.g. v1(M, a, C).
	Atom cq.Atom
}

// String renders the view-tuple literal.
func (t Tuple) String() string { return t.Atom.String() }

// Expansion returns the expansion of the view tuple: the view's body with
// distinguished variables bound to the tuple's arguments and existential
// variables replaced by fresh variables drawn from gen. The returned
// existentials slice lists the fresh variables introduced, in a
// deterministic order.
func (t Tuple) Expansion(gen *cq.FreshGen) (body []cq.Atom, existentials []cq.Var, err error) {
	bind := cq.NewSubst()
	for i, formal := range t.View.Def.Head.Args {
		fv, ok := formal.(cq.Var)
		if !ok {
			if formal != t.Atom.Args[i] {
				return nil, nil, fmt.Errorf("views: tuple %s conflicts with constant %s in head of %s",
					t.Atom, formal, t.View.Name())
			}
			continue
		}
		if !bind.Bind(fv, t.Atom.Args[i]) {
			return nil, nil, fmt.Errorf("views: tuple %s repeats head variable %s of %s with conflicting arguments",
				t.Atom, fv, t.View.Name())
		}
	}
	for _, ev := range t.View.existentials() {
		fresh := gen.Fresh()
		bind[ev] = fresh
		existentials = append(existentials, fresh)
	}
	return bind.Atoms(t.View.Def.Body), existentials, nil
}

// ComputeTuples computes T(Q, V): for each view, every result tuple of the
// view over Q's canonical database, thawed back to Q's variables, with
// exact duplicates removed per view (Section 3.3). The query should
// already be minimized; callers that start from a raw query minimize
// first (CoreCover step 1).
//
// Views for which candidate reports false are skipped before any
// homomorphism probe. A sound candidate is a predicate-coverage test: a
// view whose body mentions a predicate the query never uses has no
// homomorphism into the canonical database, so it contributes no tuples,
// and deciding that from a predicate set costs far less than the per-view
// kernel setup when most of a large view set is irrelevant to the query.
// A nil candidate runs that test over a per-call set of the query's
// predicate names; a resident catalog passes the same test over the
// predicate ids it numbered once for its representatives. The surviving
// views are probed through one pooled batch frame
// (containment.BatchProber) instead of a pool round-trip per view.
func ComputeTuples(q *cq.Query, s *Set, candidate func(i int) bool) []Tuple {
	if candidate == nil {
		inQ := q.Preds()
		candidate = func(i int) bool {
			for _, a := range s.Views[i].Def.Body {
				if _, ok := inQ[a.Pred]; !ok {
					return false
				}
			}
			return true
		}
	}
	db := containment.FreezeQuery(q)
	p := containment.NewBatchProber(db)
	defer p.Close()
	var out []Tuple
	for i, v := range s.Views {
		if candidate(i) {
			out = appendViewTuples(out, db, p, v)
		}
	}
	return out
}

// appendViewTuples appends one view's deduplicated tuples to dst.
// Duplicates can only arise within a single view (distinct views yield
// distinct Tuple.View pointers), so deduplication scans only the entries
// appended for this view.
//
// Answers stream straight out of the prober's frame and are deduplicated
// in their frozen form, so the many candidate homomorphisms that
// reproduce an already-seen tuple cost no allocation at all; the argument
// copy and the thaw (which boxes each variable into a cq.Term) happen
// only for answers that are kept. Deduplicating before thawing is sound
// because freezing — and hence thawing — is injective on terms.
func appendViewTuples(dst []Tuple, db *containment.CanonicalDB, p *containment.BatchProber, v *View) []Tuple {
	var kept [][]cq.Term // frozen args of the tuples kept for this view
	p.Evaluate(v.Def, func(frozen []cq.Term) bool {
	candidates:
		for _, prev := range kept {
			for i := range frozen {
				if prev[i] != frozen[i] {
					continue candidates
				}
			}
			return true // duplicate of an earlier homomorphism's answer
		}
		kept = append(kept, append([]cq.Term(nil), frozen...))
		args := make([]cq.Term, len(frozen))
		for i, t := range frozen {
			args[i] = db.ThawTerm(t)
		}
		dst = append(dst, Tuple{View: v, Atom: cq.Atom{Pred: v.Def.Head.Pred, Args: args}})
		return true
	})
	return dst
}

// TuplesAsQuery builds a rewriting candidate from view tuples: the head of
// q with the tuples' atoms as body.
func TuplesAsQuery(q *cq.Query, tuples []Tuple) *cq.Query {
	body := make([]cq.Atom, len(tuples))
	for i, t := range tuples {
		body[i] = t.Atom.Clone()
	}
	return &cq.Query{Head: q.Head.Clone(), Body: body}
}
