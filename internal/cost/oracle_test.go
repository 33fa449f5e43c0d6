package cost

import (
	"fmt"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
)

// BestPlanM2Exhaustive is the M2 oracle: every permutation replayed
// through PlanM2, keeping the first strict minimum; n is capped to keep
// factorial growth in check.
func BestPlanM2Exhaustive(db *engine.Database, p *cq.Query) (*Plan, error) {
	n := len(p.Body)
	if n > 9 {
		return nil, fmt.Errorf("cost: %d subgoals exceeds the exhaustive limit of 9", n)
	}
	var best *Plan
	err := forEachPermutation(n, func(order []int) error {
		plan, err := PlanM2(db, p, order)
		if err != nil {
			return err
		}
		if best == nil || plan.Cost < best.Cost {
			best = plan
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return best, nil
}

// forEachPermutation invokes fn with every permutation of 0..n-1 (Heap's
// algorithm). fn must not retain the slice.
func forEachPermutation(n int, fn func([]int) error) error {
	perm := identityOrder(n)
	var rec func(k int) error
	rec = func(k int) error {
		if k == 1 {
			return fn(perm)
		}
		for i := 0; i < k; i++ {
			if err := rec(k - 1); err != nil {
				return err
			}
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
		return nil
	}
	return rec(n)
}
