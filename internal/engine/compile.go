package engine

import (
	"fmt"
	"log/slog"

	"viewplan/internal/cq"
	"viewplan/internal/obs"
)

// constCheck pins an atom position to an interned constant id.
type constCheck struct {
	pos int
	id  uint32
}

// repCheck requires two atom positions (a repeated variable) to agree.
type repCheck struct {
	pos, first int
}

// atomSpec is the compiled form of one subgoal joined against a current
// intermediate schema. JoinStep, JoinCount and the streaming join
// (streamJoin, iterator.go) compile the same spec, so every path
// classifies positions, checks constants, and orders new columns
// identically — the foundation of the byte-identity argument in
// DESIGN §16.
type atomSpec struct {
	rel *Relation
	out Schema // cur ++ atom's new vars in first-occurrence order

	joinCols []int // atom positions bound by cur's schema
	curCols  []int // matching column of cur for each joinCols entry

	// newPos[j] is the atom position supplying out[len(cur)+j]: the first
	// occurrence of each variable absent from cur, in atom order.
	newPos []int

	constChecks []constCheck
	repChecks   []repCheck

	// impossible marks a subgoal with a constant the database has never
	// interned: no stored row can match, so the join is empty.
	impossible bool
}

// compileAtom resolves a subgoal's relation and classifies its positions
// against the current schema: shared variables become join columns, new
// variables extend the output schema at their first occurrence, and
// constants / repeated variables compile into per-row residual checks.
// Unknown predicates tick the counter and join as empty relations (or
// error in strict mode), exactly as JoinStep always has.
func (db *Database) compileAtom(cur Schema, atom cq.Atom) (atomSpec, error) {
	tr := db.Tracer()
	rel := db.rels[atom.Pred]
	if rel == nil {
		tr.Add(obs.CtrUnknownPreds, 1)
		if tr.HasSink() {
			tr.Event("unknown-predicate", slog.String("subgoal", atom.String()))
		}
		if db.strict {
			return atomSpec{}, &UnknownPredicateError{Pred: atom.Pred}
		}
		rel = newRelationIn(atom.Pred, atom.Arity(), db.in, nil)
	}
	if rel.Arity != atom.Arity() {
		return atomSpec{}, fmt.Errorf("engine: subgoal %s has arity %d, relation has %d", atom, atom.Arity(), rel.Arity)
	}

	spec := atomSpec{
		rel:      rel,
		out:      append(Schema(nil), cur...),
		joinCols: make([]int, 0, len(atom.Args)),
		curCols:  make([]int, 0, len(atom.Args)),
	}
	for i, arg := range atom.Args {
		switch a := arg.(type) {
		case cq.Const:
			id, known := db.in.Lookup(a)
			if !known {
				spec.impossible = true
			} else {
				spec.constChecks = append(spec.constChecks, constCheck{i, id})
			}
		case cq.Var:
			// Arities are small: a scan for the first occurrence beats a
			// map built per compile.
			first := 0
			for atom.Args[first] != arg {
				first++
			}
			if first != i {
				spec.repChecks = append(spec.repChecks, repCheck{i, first})
			} else if c := cur.IndexOf(a); c >= 0 {
				spec.joinCols = append(spec.joinCols, i)
				spec.curCols = append(spec.curCols, c)
			} else {
				spec.newPos = append(spec.newPos, i)
				spec.out = append(spec.out, a)
			}
		}
	}
	return spec, nil
}

// matches applies the spec's residual checks to one stored row.
func (s *atomSpec) matches(right []uint32) bool {
	for _, cc := range s.constChecks {
		if right[cc.pos] != cc.id {
			return false
		}
	}
	for _, rc := range s.repChecks {
		if right[rc.pos] != right[rc.first] {
			return false
		}
	}
	return true
}
