// Package cost implements the paper's three cost models (Table 1) and the
// optimizer machinery around them:
//
//   - M1 counts the view subgoals of a physical plan (Section 3); optimal
//     rewritings under M1 are the globally-minimal rewritings CoreCover
//     finds.
//   - M2 sums the sizes of the view relations joined plus the sizes of the
//     intermediate relations IR_i with all attributes retained
//     (Section 5). IR_i depends only on the *set* of subgoals joined.
//   - M3 sums view sizes plus generalized supplementary relations GSR_i:
//     IR_i with a per-step annotation of dropped attributes (Section 6),
//     under the classical supplementary-relation rule or the paper's
//     renaming heuristic (Section 6.2), which can drop attributes the
//     classical rule must keep, as in Example 6.1. Under the classical
//     rule a dropped variable never occurs again, so GSR(S) =
//     π_keep(S)(⋈S) with keep(S) = vars(S) ∩ (head ∪ vars(rest)): it too
//     depends on the set S alone. Under the heuristic it depends on S and
//     the renames the drops applied to it.
//
// Both models are ordered by one search over those states (lattice),
// sizing M2's by count-only probes and M3's by materializing them. Sizes
// are measured on an engine.Database (the closed-world setting: views are
// materialized), not estimated. The search takes an upper bound on the
// cost of interest, so a caller comparing candidate rewritings passes the
// best cost it holds.
package cost

import (
	"fmt"
	"strings"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
)

// Model identifies one of the paper's cost models.
type Model int

const (
	// M1 counts view subgoals.
	M1 Model = iota + 1
	// M2 counts view-relation and intermediate-relation sizes.
	M2
	// M3 is M2 with attribute dropping (generalized supplementary
	// relations).
	M3
)

// String names the model as in the paper.
func (m Model) String() string {
	switch m {
	case M1:
		return "M1"
	case M2:
		return "M2"
	case M3:
		return "M3"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// M1Cost is the cost of a rewriting under M1: its number of subgoals.
// Every physical plan of the rewriting has this cost, so no optimizer is
// involved.
func M1Cost(p *cq.Query) int { return len(p.Body) }

// Step records one subgoal of a simulated physical plan.
type Step struct {
	// Subgoal is the view literal processed at this position.
	Subgoal cq.Atom
	// ViewSize is the size of the stored view relation (size(g_i)).
	ViewSize int
	// Dropped lists the attributes dropped after this step (the X_i
	// annotation of M3 plans; always empty under M2).
	Dropped []cq.Var
	// Retained is the schema of the intermediate relation after this step.
	Retained []cq.Var
	// ResultSize is size(IR_i) under M2 or size(GSR_i) under M3.
	ResultSize int
}

// Plan is a simulated physical plan for a rewriting: a subgoal order, the
// per-step drop annotations (M3), the measured intermediate sizes, and the
// total cost under the plan's model.
type Plan struct {
	Model     Model
	Rewriting *cq.Query
	// Order is the permutation of body subgoal indexes executed.
	Order []int
	Steps []Step
	// Cost is Σ (ViewSize + ResultSize) over the steps.
	Cost int
}

// String renders the plan as an annotated subgoal list.
func (p *Plan) String() string {
	s := p.Model.String() + " plan, cost " + fmt.Sprint(p.Cost) + ": "
	for i, st := range p.Steps {
		if i > 0 {
			s += "; "
		}
		s += st.Subgoal.String()
		if len(st.Dropped) > 0 {
			s += fmt.Sprintf(" drop%v", st.Dropped)
		}
		s += fmt.Sprintf(" |IR|=%d", st.ResultSize)
	}
	return s
}

// Tree renders the plan as an annotated multi-line step listing: one
// line per join step with the view size, intermediate-relation size,
// dropped attributes (M3), and retained schema. Used by the corecover
// CLI's -explain output.
func (p *Plan) Tree() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s plan, cost %d:\n", p.Model, p.Cost)
	for i, st := range p.Steps {
		branch := "├─"
		if i == len(p.Steps)-1 {
			branch = "└─"
		}
		fmt.Fprintf(&b, "  %s %d. %s  |view|=%d → |IR|=%d", branch, i+1, st.Subgoal, st.ViewSize, st.ResultSize)
		if len(st.Dropped) > 0 {
			fmt.Fprintf(&b, "  drop %v", st.Dropped)
		}
		fmt.Fprintf(&b, "  retain %v\n", st.Retained)
	}
	return strings.TrimRight(b.String(), "\n")
}

// viewSizes fetches the stored relation sizes for every body subgoal,
// reporting an error if a relation has not been materialized.
func viewSizes(db *engine.Database, p *cq.Query) ([]int, error) {
	out := make([]int, len(p.Body))
	for i, a := range p.Body {
		rel := db.Relation(a.Pred)
		if rel == nil {
			return nil, fmt.Errorf("cost: relation %q not materialized", a.Pred)
		}
		if rel.Arity != a.Arity() {
			return nil, fmt.Errorf("cost: subgoal %s has arity %d, relation has %d", a, a.Arity(), rel.Arity)
		}
		out[i] = rel.Size()
	}
	return out, nil
}

func identityOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func validOrder(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("cost: order has %d entries for %d subgoals", len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("cost: order %v is not a permutation of 0..%d", order, n-1)
		}
		seen[i] = true
	}
	return nil
}
