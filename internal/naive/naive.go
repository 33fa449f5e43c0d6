// Package naive implements the brute-force algorithm sketched below
// Theorem 3.1 of the paper: enumerate combinations of view tuples of
// increasing size and test each combination for equivalence with a
// containment mapping. It is the correctness reference and the baseline
// that shows why CoreCover's tuple-core pruning matters.
package naive

import (
	"viewplan/internal/containment"
	"viewplan/internal/cq"
	"viewplan/internal/views"
)

// Options tunes the enumeration.
type Options struct {
	// MaxRewritings caps the number of rewritings returned (0 = all of
	// the minimum size).
	MaxRewritings int
}

// GMRs enumerates globally-minimal rewritings by checking every
// combination of k view tuples for k = 1, 2, ..., n (n = number of
// subgoals of the minimized query, the Theorem 3.1 bound [LMSS95]),
// stopping at the first k with equivalent combinations.
func GMRs(q *cq.Query, vs *views.Set, opts Options) ([]*cq.Query, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	minQ := containment.Minimize(q)
	tuples := views.ComputeTuples(minQ, vs, nil)
	n := len(minQ.Body)
	if len(tuples) < 1 {
		return nil, nil
	}
	for k := 1; k <= n; k++ {
		var found []*cq.Query
		combo := make([]int, k)
		var rec func(start, depth int) bool
		rec = func(start, depth int) bool {
			if depth == k {
				chosen := make([]views.Tuple, k)
				for i, ti := range combo {
					chosen[i] = tuples[ti]
				}
				p := views.TuplesAsQuery(minQ, chosen)
				if vs.IsEquivalentRewriting(p, minQ) {
					found = append(found, p)
					if opts.MaxRewritings > 0 && len(found) >= opts.MaxRewritings {
						return false
					}
				}
				return true
			}
			for i := start; i <= len(tuples)-(k-depth); i++ {
				combo[depth] = i
				if !rec(i+1, depth+1) {
					return false
				}
			}
			return true
		}
		rec(0, 0)
		if len(found) > 0 {
			return found, nil
		}
	}
	return nil, nil
}
