package corecover

import (
	"viewplan/internal/containment"
	"viewplan/internal/cq"
	"viewplan/internal/views"
)

// This file implements the Section 3 rewriting taxonomy used to validate
// the search-space results (Figure 1, Figure 2, Lemma 3.1,
// Propositions 3.1 and 3.2):
//
//   minimal    — no redundant subgoals as a query over the view predicates;
//   LMR        — locally minimal: no subgoal can be removed while the query
//                remains an equivalent rewriting (a strictly stronger
//                condition, tested through expansions);
//   CMR        — containment minimal: an LMR with no other LMR properly
//                contained in it as a query;
//   GMR        — globally minimal: minimum number of subgoals overall.

// IsMinimalRewriting reports whether p has no redundant subgoals as a
// query (over the view predicates).
func IsMinimalRewriting(p *cq.Query) bool {
	return containment.IsMinimal(p)
}

// IsLocallyMinimal reports whether p is an LMR of q over vs: an equivalent
// rewriting from which no subgoal can be dropped while remaining an
// equivalent rewriting.
func IsLocallyMinimal(p, q *cq.Query, vs *views.Set) bool {
	if !vs.IsEquivalentRewriting(p, q) {
		return false
	}
	for i := range p.Body {
		cand := p.RemoveSubgoal(i)
		if len(cand.Body) == 0 {
			continue
		}
		if cand.Validate() != nil {
			continue // dropping the subgoal made the query unsafe
		}
		if vs.IsEquivalentRewriting(cand, q) {
			return false
		}
	}
	return true
}

// LocallyMinimize greedily removes subgoals from p while it remains an
// equivalent rewriting of q, returning an LMR (the result depends on
// removal order; any LMR reachable from p is acceptable, matching the
// paper's second minimization step in Section 3.1).
func LocallyMinimize(p, q *cq.Query, vs *views.Set) *cq.Query {
	cur := containment.Minimize(p)
	for {
		removed := false
		for i := 0; i < len(cur.Body); i++ {
			cand := cur.RemoveSubgoal(i)
			if len(cand.Body) == 0 || cand.Validate() != nil {
				continue
			}
			if vs.IsEquivalentRewriting(cand, q) {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}

// IsContainmentMinimal reports whether p is a CMR among the given LMRs:
// no other LMR in the list is properly contained in p as a query.
// The list should contain representatives of all LMRs of interest.
func IsContainmentMinimal(p *cq.Query, lmrs []*cq.Query) bool {
	for _, other := range lmrs {
		if other == p || other.Equal(p) {
			continue
		}
		if containment.ProperlyContains(other, p) {
			return false
		}
	}
	return true
}

// NormalizeToRepresentatives rewrites p so every view subgoal uses the
// representative of its view's equivalence class (Section 5.2: "the
// optimizer can replace a view tuple in a rewriting with another view
// tuple in the same equivalence view-tuple class"). Containment between
// rewritings as queries treats predicates as opaque, so the Figure 2
// partial order of LMRs is taken after this normalization — the paper's
// P5 (using v5) properly contains P2 (using v1) only because v5 and v1
// are the same view up to naming.
func NormalizeToRepresentatives(p *cq.Query, vs *views.Set) *cq.Query {
	classes, _ := vs.EquivalenceClasses()
	rep := make(map[string]string)
	for _, class := range classes {
		for _, v := range class {
			rep[v.Name()] = class[0].Name()
		}
	}
	out := p.Clone()
	for i := range out.Body {
		if r, ok := rep[out.Body[i].Pred]; ok {
			out.Body[i].Pred = r
		}
	}
	return out
}

// PartialOrder computes the proper-containment relation among rewritings
// as queries (Figure 2): edge (i, j) means rewritings[i] properly contains
// rewritings[j] (rewritings[j] ⊏ rewritings[i]). The returned matrix is
// the full relation, not a transitive reduction.
func PartialOrder(rewritings []*cq.Query) [][]bool {
	n := len(rewritings)
	rel := make([][]bool, n)
	for i := range rel {
		rel[i] = make([]bool, n)
		for j := range rel[i] {
			if i == j {
				continue
			}
			rel[i][j] = containment.ProperlyContains(rewritings[j], rewritings[i])
		}
	}
	return rel
}

// Example31Family generates the paper's Example 3.1 generalized to m
// base relations: the query q(X1..Xm) :- e1(X1,c), ..., em(Xm,c), the
// single view v(X1..Xm,W) :- e1(X1,W), ..., em(Xm,W), and the chain of
// LMRs P1 ⊏ P2 ⊏ ... ⊏ Pm of Figure 2(b), where P_k uses k view
// literals, each exposing a different subset of the head variables and
// padding the rest with fresh variables.
func Example31Family(m int) (q *cq.Query, view *cq.Query, chain []*cq.Query) {
	head := cq.Atom{Pred: "q"}
	var body []cq.Atom
	vHead := cq.Atom{Pred: "v"}
	var vBody []cq.Atom
	for i := 1; i <= m; i++ {
		x := cq.Var("X" + itoa(i))
		head.Args = append(head.Args, x)
		body = append(body, cq.NewAtom("e"+itoa(i), x, cq.Const("c")))
		vHead.Args = append(vHead.Args, x)
		vBody = append(vBody, cq.NewAtom("e"+itoa(i), x, cq.Var("W")))
	}
	vHead.Args = append(vHead.Args, cq.Var("W"))
	q = &cq.Query{Head: head, Body: body}
	view = &cq.Query{Head: vHead, Body: vBody}

	// P_k: k view literals following the paper's pattern — the first
	// literal exposes head positions 1..m-k+1 and each further literal
	// exposes one of the remaining positions; unexposed positions get
	// fresh variables. Exposure sets of P_{k+1} refine those of P_k, so
	// the chain is properly ordered by containment.
	fresh := 0
	for k := 1; k <= m; k++ {
		p := &cq.Query{Head: head.Clone()}
		for j := 0; j < k; j++ {
			exposed := func(i int) bool {
				if j == 0 {
					return i <= m-k+1
				}
				return i == m-k+1+j
			}
			atom := cq.Atom{Pred: "v"}
			for i := 1; i <= m; i++ {
				if exposed(i) {
					atom.Args = append(atom.Args, cq.Var("X"+itoa(i)))
				} else {
					fresh++
					atom.Args = append(atom.Args, cq.Var("F"+itoa(fresh)))
				}
			}
			atom.Args = append(atom.Args, cq.Const("c"))
			p.Body = append(p.Body, atom)
		}
		chain = append(chain, p)
	}
	return q, view, chain
}

// Bottoms returns the indexes of the minimal elements of the partial
// order produced by PartialOrder: rewritings with no other rewriting
// properly contained in them. Among LMRs these are the CMRs.
func Bottoms(rel [][]bool) []int {
	var out []int
	for i := range rel {
		bottom := true
		for j := range rel[i] {
			if rel[i][j] {
				bottom = false
				break
			}
		}
		if bottom {
			out = append(out, i)
		}
	}
	return out
}
