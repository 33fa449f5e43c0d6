package engine

import (
	"fmt"

	"viewplan/internal/cq"
)

// FilterComparisons keeps the rows of vr satisfying every built-in
// comparison (Section 8 extension: queries and views with built-in
// predicates evaluate by filtering the relational join). Every compared
// variable must be in the schema; constants pass through. A subset of a
// set is a set, so kept rows are appended without a dedup table.
func FilterComparisons(vr *VarRelation, comps []cq.Comparison) (*VarRelation, error) {
	if len(comps) == 0 {
		return vr, nil
	}
	type side struct {
		col int   // column index, or -1 for a constant
		val Value // constant value when col < 0
	}
	resolve := func(t cq.Term) (side, error) {
		switch t := t.(type) {
		case cq.Const:
			return side{col: -1, val: t}, nil
		case cq.Var:
			c := vr.Schema.IndexOf(t)
			if c < 0 {
				return side{}, fmt.Errorf("engine: compared variable %s not in schema %v", t, vr.Schema)
			}
			return side{col: c}, nil
		}
		return side{}, fmt.Errorf("engine: bad comparison term %v", t)
	}
	type check struct {
		op   cq.CompOp
		l, r side
	}
	checks := make([]check, len(comps))
	for i, c := range comps {
		l, err := resolve(c.Left)
		if err != nil {
			return nil, err
		}
		r, err := resolve(c.Right)
		if err != nil {
			return nil, err
		}
		checks[i] = check{op: c.Op, l: l, r: r}
	}
	out := newVarRelationIn(vr.Schema, vr.in)
	for i := 0; i < vr.n; i++ {
		row := vr.irow(i)
		ok := true
		for _, ch := range checks {
			lv, rv := ch.l.val, ch.r.val
			if ch.l.col >= 0 {
				lv = vr.in.Value(row[ch.l.col])
			}
			if ch.r.col >= 0 {
				rv = vr.in.Value(row[ch.r.col])
			}
			if !cq.CompareValues(ch.op, lv, rv) {
				ok = false
				break
			}
		}
		if ok {
			out.appendRow(row)
		}
	}
	return out, nil
}
