package engine

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"viewplan/internal/containment"
	"viewplan/internal/cq"
)

func absSeed(seed int64) int64 {
	if seed < 0 {
		return -(seed + 1)
	}
	return seed
}

// randomDBAndQuery builds a random database and a random safe query over
// its relations.
func randomDBAndQuery(seed int64) (*Database, *cq.Query) {
	rnd := rand.New(rand.NewSource(seed))
	db := NewDatabase()
	gen := NewDataGen(seed, 4+rnd.Intn(8))
	nRels := 1 + rnd.Intn(3)
	for i := 0; i < nRels; i++ {
		gen.Fill(db, "p"+strconv.Itoa(i), 1+rnd.Intn(3), 5+rnd.Intn(30))
	}
	pool := []cq.Var{"A", "B", "C", "D"}
	nSub := 1 + rnd.Intn(4)
	body := make([]cq.Atom, nSub)
	for i := range body {
		name := "p" + strconv.Itoa(rnd.Intn(nRels))
		arity := db.Relation(name).Arity
		args := make([]cq.Term, arity)
		for j := range args {
			if rnd.Intn(8) == 0 {
				args[j] = cq.Const("c" + strconv.Itoa(rnd.Intn(4)))
			} else {
				args[j] = pool[rnd.Intn(len(pool))]
			}
		}
		body[i] = cq.Atom{Pred: name, Args: args}
	}
	q := &cq.Query{Head: cq.Atom{Pred: "q"}, Body: body}
	for _, v := range q.BodyVars().Sorted() {
		if rnd.Intn(2) == 0 {
			q.Head.Args = append(q.Head.Args, v)
		}
	}
	if len(q.Head.Args) == 0 {
		vs := q.BodyVars().Sorted()
		if len(vs) > 0 {
			q.Head.Args = append(q.Head.Args, vs[0])
		} else {
			q.Head.Args = append(q.Head.Args, cq.Const("k"))
		}
	}
	return db, q
}

// Evaluation agrees with the homomorphism-based reference evaluator.
func TestQuickEvaluateMatchesHomSearch(t *testing.T) {
	f := func(seed int64) bool {
		db, q := randomDBAndQuery(absSeed(seed))
		got, err := db.Evaluate(q)
		if err != nil {
			return false
		}
		// Reference: enumerate homomorphisms of the body into the facts.
		var facts []cq.Atom
		for _, name := range db.Names() {
			for _, row := range db.Relation(name).Rows() {
				args := make([]cq.Term, len(row))
				for i, v := range row {
					args[i] = v
				}
				facts = append(facts, cq.Atom{Pred: name, Args: args})
			}
		}
		want := NewRelation("q", q.Head.Arity())
		containment.Homs(q.Body, facts, nil, func(h cq.Subst) bool {
			head := h.Atom(q.Head)
			tp := make(Tuple, len(head.Args))
			for i, a := range head.Args {
				c, ok := a.(cq.Const)
				if !ok {
					return false
				}
				tp[i] = c
			}
			want.Insert(tp)
			return true
		})
		if got.Size() != want.Size() {
			return false
		}
		for _, row := range want.Rows() {
			if !got.Contains(row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// The all-attribute join result (IR) is independent of the join order,
// and Evaluate of a head listing every body variable yields it.
func TestQuickJoinOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		s := absSeed(seed)
		db, q := randomDBAndQuery(s)
		rnd := rand.New(rand.NewSource(s + 1))
		base, err := joinMaterialized(db, q.Body)
		if err != nil {
			return false
		}
		all := q.Clone()
		all.Head.Args = make([]cq.Term, len(base.Schema))
		for i, v := range base.Schema {
			all.Head.Args[i] = v
		}
		ev, err := db.Evaluate(all)
		if err != nil || ev.Size() != base.Size() {
			return false
		}
		for _, r := range base.Rows() {
			if !ev.Contains(r) {
				return false
			}
		}
		// Random order, step by step, all attributes retained.
		order := rnd.Perm(len(q.Body))
		cur := UnitVarRelation()
		for _, idx := range order {
			cur, err = db.JoinStep(cur, q.Body[idx], nil)
			if err != nil {
				return false
			}
		}
		if cur.Size() != base.Size() {
			return false
		}
		// Same rows modulo column order.
		proj, err := cur.Project(base.Schema)
		if err != nil {
			return false
		}
		if proj.Size() != base.Size() {
			return false
		}
		baseKeys := make(map[string]struct{}, base.Size())
		for _, r := range base.Rows() {
			baseKeys[r.Key()] = struct{}{}
		}
		for _, r := range proj.Rows() {
			if _, ok := baseKeys[r.Key()]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Projection never grows a relation and is idempotent.
func TestQuickProjectionProperties(t *testing.T) {
	f := func(seed int64) bool {
		s := absSeed(seed)
		db, q := randomDBAndQuery(s)
		vr, err := joinMaterialized(db, q.Body)
		if err != nil {
			return false
		}
		if len(vr.Schema) == 0 {
			return true
		}
		rnd := rand.New(rand.NewSource(s + 2))
		keep := vr.Schema[:1+rnd.Intn(len(vr.Schema))]
		p1, err := vr.Project(keep)
		if err != nil {
			return false
		}
		if p1.Size() > vr.Size() {
			return false
		}
		p2, err := p1.Project(keep)
		if err != nil {
			return false
		}
		return p2.Size() == p1.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Set semantics: re-inserting every row leaves a relation unchanged.
func TestQuickInsertIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		db, _ := randomDBAndQuery(absSeed(seed))
		for _, name := range db.Names() {
			rel := db.Relation(name)
			before := rel.Size()
			for _, row := range append([]Tuple(nil), rel.Rows()...) {
				if rel.Insert(row) {
					return false
				}
			}
			if rel.Size() != before {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
