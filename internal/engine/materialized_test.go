package engine

import (
	"fmt"

	"viewplan/internal/cq"
)

// The materialized reference evaluator: the JoinStep chain in greedy
// order with every intermediate built, then a comparison filter and a
// head projection over the final intermediate. Evaluate streams the
// same operators instead; the tests hold it byte-identical to this
// (relIdentical), which is why the reference stays on the database's
// interner.

// joinMaterialized joins the body in greedyOrder, one JoinStep per
// atom, returning the intermediate over all body variables.
func joinMaterialized(db *Database, body []cq.Atom) (*VarRelation, error) {
	cur := UnitVarRelation()
	for _, idx := range db.greedyOrder(body) {
		next, err := db.JoinStep(cur, body[idx], nil)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// evaluateMaterialized is the reference for Evaluate.
func evaluateMaterialized(db *Database, q *cq.Query) (*Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	vr, err := joinMaterialized(db, q.Body)
	if err != nil {
		return nil, err
	}
	if vr, err = filterMaterialized(vr, q.Comparisons); err != nil {
		return nil, err
	}
	return projectHeadMaterialized(db, vr, q.Head)
}

// filterMaterialized keeps the rows of vr satisfying every comparison.
func filterMaterialized(vr *VarRelation, comps []cq.Comparison) (*VarRelation, error) {
	if len(comps) == 0 {
		return vr, nil
	}
	value := func(t cq.Term, row []uint32) (Value, error) {
		switch t := t.(type) {
		case cq.Const:
			return t, nil
		case cq.Var:
			if c := vr.Schema.IndexOf(t); c >= 0 {
				return vr.in.Value(row[c]), nil
			}
		}
		return "", fmt.Errorf("engine: compared term %v not in schema %v", t, vr.Schema)
	}
	out := newVarRelationIn(vr.Schema, vr.in)
	for i := 0; i < vr.n; i++ {
		row := vr.irow(i)
		keep := true
		for _, c := range comps {
			l, err := value(c.Left, row)
			if err != nil {
				return nil, err
			}
			r, err := value(c.Right, row)
			if err != nil {
				return nil, err
			}
			keep = keep && cq.CompareValues(c.Op, l, r)
		}
		if keep {
			out.insertIDs(row)
		}
	}
	return out, nil
}

// projectHeadMaterialized builds the answer relation from the head:
// variables copy their column's id, constants are interned. Rows are
// inserted with set semantics, and the answer advances the database
// generation as Evaluate's does.
func projectHeadMaterialized(db *Database, vr *VarRelation, head cq.Atom) (*Relation, error) {
	out := newRelationIn(head.Pred, head.Arity(), db.in, &db.gen)
	buf := make([]uint32, head.Arity())
	for ri := 0; ri < vr.n; ri++ {
		row := vr.irow(ri)
		for i, arg := range head.Args {
			switch a := arg.(type) {
			case cq.Var:
				c := vr.Schema.IndexOf(a)
				if c < 0 {
					return nil, fmt.Errorf("engine: head variable %s missing from join schema", a)
				}
				buf[i] = row[c]
			case cq.Const:
				buf[i] = db.in.ID(a)
			}
		}
		out.insertIDs(buf)
	}
	return out, nil
}
