package engine

import (
	"slices"
	"testing"

	"viewplan/internal/cq"
	"viewplan/internal/views"
)

func q(src string) *cq.Query { return cq.MustParseQuery(src) }

func mustDB(t *testing.T, facts string) *Database {
	t.Helper()
	db := NewDatabase()
	if err := db.LoadFacts(facts); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRelationSetSemantics(t *testing.T) {
	r := NewRelation("e", 2)
	if !r.Insert(Tuple{"a", "b"}) {
		t.Error("first insert should be new")
	}
	if r.Insert(Tuple{"a", "b"}) {
		t.Error("duplicate insert should be ignored")
	}
	if r.Size() != 1 {
		t.Errorf("size = %d", r.Size())
	}
	if !r.Contains(Tuple{"a", "b"}) || r.Contains(Tuple{"b", "a"}) {
		t.Error("Contains broken")
	}
}

func TestTupleKeyCollisionFree(t *testing.T) {
	a := Tuple{"ab", "c"}
	b := Tuple{"a", "bc"}
	if a.Key() == b.Key() {
		t.Error("keys collide")
	}
}

func TestLoadFactsAndEvaluate(t *testing.T) {
	db := mustDB(t, `
		car(honda, a). car(toyota, a). car(honda, b).
		loc(a, sf). loc(b, la).
		part(s1, honda, sf). part(s2, toyota, la). part(s3, honda, la).
	`)
	rel, err := db.Evaluate(q("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)"))
	if err != nil {
		t.Fatal(err)
	}
	// car makes at dealer a: honda, toyota; loc(a, sf); parts in sf for
	// those makes: s1(honda, sf). So the answer is {(s1, sf)}.
	if rel.Size() != 1 || !rel.Contains(Tuple{"s1", "sf"}) {
		t.Errorf("answer = %v", rel.SortedRows())
	}
}

func TestEvaluateRepeatedVariable(t *testing.T) {
	db := mustDB(t, "e(a, a). e(a, b). e(b, b).")
	rel, err := db.Evaluate(q("q(X) :- e(X, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Size() != 2 || !rel.Contains(Tuple{"a"}) || !rel.Contains(Tuple{"b"}) {
		t.Errorf("answer = %v", rel.SortedRows())
	}
}

func TestEvaluateConstantInHead(t *testing.T) {
	db := mustDB(t, "e(a, b).")
	rel, err := db.Evaluate(q("q(X, tag) :- e(X, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Size() != 1 || !rel.Contains(Tuple{"a", "tag"}) {
		t.Errorf("answer = %v", rel.SortedRows())
	}
}

func TestEvaluateMissingRelation(t *testing.T) {
	db := mustDB(t, "e(a, b).")
	rel, err := db.Evaluate(q("q(X) :- e(X, Y), f(Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Size() != 0 {
		t.Errorf("answer = %v", rel.SortedRows())
	}
}

func TestMaterializeViews(t *testing.T) {
	db := mustDB(t, `
		car(honda, a). loc(a, sf). part(s1, honda, sf).
	`)
	vs, err := views.ParseSet(`
		v1(M, D, C) :- car(M, D), loc(D, C).
		v2(S, M, C) :- part(S, M, C).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		t.Fatal(err)
	}
	v1 := db.Relation("v1")
	if v1 == nil || v1.Size() != 1 || !v1.Contains(Tuple{"honda", "a", "sf"}) {
		t.Errorf("v1 = %v", v1)
	}
	if db.Relation("v2").Size() != 1 {
		t.Error("v2 wrong")
	}
	// Name collision rejected.
	if err := db.MaterializeViews(vs); err == nil {
		t.Error("expected collision error")
	}
}

func TestClosedWorldEquivalence(t *testing.T) {
	// Evaluating a rewriting over materialized views gives the same answer
	// as evaluating the query over the base relations — the closed-world
	// guarantee the whole paper rests on.
	db := mustDB(t, `
		car(honda, a). car(toyota, a). car(honda, b). car(bmw, c).
		loc(a, sf). loc(a, la). loc(b, la). loc(c, ny).
		part(s1, honda, sf). part(s2, toyota, la). part(s3, honda, la).
		part(s4, bmw, ny). part(s5, honda, sf).
	`)
	query := q("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)")
	base, err := db.Evaluate(query)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := views.ParseSet(`
		v1(M, D, C) :- car(M, D), loc(D, C).
		v2(S, M, C) :- part(S, M, C).
		v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"q1(S, C) :- v1(M, a, C), v2(S, M, C)",
		"q1(S, C) :- v4(M, a, C, S)",
		"q1(S, C) :- v1(M, a, C1), v1(M1, a, C), v2(S, M, C)",
	} {
		got, err := db.Evaluate(q(src))
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != base.Size() {
			t.Errorf("%s: %d rows, want %d", src, got.Size(), base.Size())
			continue
		}
		for _, row := range base.Rows() {
			if !got.Contains(row) {
				t.Errorf("%s missing row %v", src, row)
			}
		}
	}
}

func TestJoinStepSchemaAndSizes(t *testing.T) {
	db := mustDB(t, "e(a, b). e(a, c). f(b, x). f(c, y). f(c, z).")
	cur := UnitVarRelation()
	cur, err := db.JoinStep(cur, cq.ParseAtomArgs("e", "X", "Y"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Size() != 2 || len(cur.Schema) != 2 {
		t.Fatalf("after e: size=%d schema=%v", cur.Size(), cur.Schema)
	}
	cur, err = db.JoinStep(cur, cq.ParseAtomArgs("f", "Y", "Z"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// (a,b,x), (a,c,y), (a,c,z)
	if cur.Size() != 3 || len(cur.Schema) != 3 {
		t.Fatalf("after f: size=%d schema=%v", cur.Size(), cur.Schema)
	}
}

func TestJoinStepWithProjection(t *testing.T) {
	db := mustDB(t, "e(a, b). e(a, c). e(d, c).")
	cur := UnitVarRelation()
	cur, err := db.JoinStep(cur, cq.ParseAtomArgs("e", "X", "Y"), []cq.Var{"X"})
	if err != nil {
		t.Fatal(err)
	}
	// Projection to X dedups (a,b)/(a,c) into one row.
	if cur.Size() != 2 {
		t.Errorf("size = %d, want 2", cur.Size())
	}
	if len(cur.Schema) != 1 || cur.Schema[0] != "X" {
		t.Errorf("schema = %v", cur.Schema)
	}
}

func TestJoinStepProjectionDropsJoinVar(t *testing.T) {
	// After dropping Y, a later join on Y must NOT filter — this is the
	// M3 semantics where dropping an attribute removes the equality
	// comparison.
	db := mustDB(t, "e(a, b). f(c, x).")
	cur := UnitVarRelation()
	cur, err := db.JoinStep(cur, cq.ParseAtomArgs("e", "X", "Y"), []cq.Var{"X"})
	if err != nil {
		t.Fatal(err)
	}
	cur, err = db.JoinStep(cur, cq.ParseAtomArgs("f", "Y", "Z"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Y is new again, so the join is a cross product: 1 × 1 = 1 row, and
	// crucially not an empty equality-filtered join.
	if cur.Size() != 1 {
		t.Errorf("size = %d, want 1 (cross product)", cur.Size())
	}
	if cur.Schema.IndexOf("Y") < 0 {
		t.Errorf("schema = %v", cur.Schema)
	}
}

func TestJoinStepConstantFilter(t *testing.T) {
	db := mustDB(t, "car(honda, a). car(toyota, b).")
	cur := UnitVarRelation()
	cur, err := db.JoinStep(cur, cq.ParseAtomArgs("car", "M", "a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Size() != 1 {
		t.Errorf("size = %d", cur.Size())
	}
}

func TestJoinStepArityMismatch(t *testing.T) {
	db := mustDB(t, "e(a, b).")
	if _, err := db.JoinStep(UnitVarRelation(), cq.ParseAtomArgs("e", "X"), nil); err == nil {
		t.Error("expected arity error")
	}
}

func TestProjectUnknownVar(t *testing.T) {
	vr := NewVarRelation(Schema{"X"})
	vr.Insert(Tuple{"a"})
	if _, err := vr.Project([]cq.Var{"Y"}); err == nil {
		t.Error("expected error")
	}
}

func TestIndexOnCachingAndInvalidation(t *testing.T) {
	r := NewRelation("e", 2)
	r.Insert(Tuple{"a", "1"})
	r.Insert(Tuple{"a", "2"})
	r.Insert(Tuple{"b", "1"})
	bucket := func(cols []int, key ...Value) []int32 {
		ids := make([]uint32, len(key))
		for i, v := range key {
			ids[i] = r.in.ID(v)
		}
		return r.indexFor(cols).bucket(ids)
	}
	idx := r.indexFor([]int{0})
	if got := bucket([]int{0}, "a"); !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("bucket(a) = %v, want [0 1]", got)
	}
	// Cached: same index returned.
	if r.indexFor([]int{0}) != idx {
		t.Error("index not cached")
	}
	// Different column set: separate index.
	idx2 := r.indexFor([]int{1})
	if idx2 == idx {
		t.Fatal("column sets {0} and {1} share an index")
	}
	if got := bucket([]int{1}, "1"); !slices.Equal(got, []int32{0, 2}) {
		t.Fatalf("bucket on column 1 = %v, want [0 2]", got)
	}
	// Insert invalidates.
	r.Insert(Tuple{"c", "3"})
	if r.indexFor([]int{0}) == idx || r.indexFor([]int{1}) == idx2 {
		t.Error("stale index after insert")
	}
	if got := bucket([]int{0}, "c"); !slices.Equal(got, []int32{3}) {
		t.Errorf("bucket(c) after insert = %v, want [3]", got)
	}
	// Empty column set: one bucket with every row.
	if got := bucket(nil); !slices.Equal(got, []int32{0, 1, 2, 3}) {
		t.Errorf("empty-cols bucket = %v", got)
	}
}

func TestDataGenDeterminism(t *testing.T) {
	db1, db2 := NewDatabase(), NewDatabase()
	g1, g2 := NewDataGen(42, 50), NewDataGen(42, 50)
	g1.Fill(db1, "e", 2, 100)
	g2.Fill(db2, "e", 2, 100)
	r1, r2 := db1.Relation("e"), db2.Relation("e")
	if r1.Size() != r2.Size() {
		t.Fatalf("sizes differ: %d vs %d", r1.Size(), r2.Size())
	}
	for _, row := range r1.Rows() {
		if !r2.Contains(row) {
			t.Fatalf("row %v missing", row)
		}
	}
}

func TestDataGenFillForQuery(t *testing.T) {
	db := NewDatabase()
	g := NewDataGen(7, 20)
	g.FillForQuery(db, q("q(X) :- e(X, Y), f(Y, Z)"), 50)
	if db.Relation("e") == nil || db.Relation("f") == nil {
		t.Fatal("relations not created")
	}
	if db.Relation("e").Size() == 0 {
		t.Error("e empty")
	}
}

func TestDataGenSkew(t *testing.T) {
	g := NewDataGen(1, 1000)
	g.Skew = 0.9
	low := 0
	for i := 0; i < 1000; i++ {
		v := g.Value()
		if len(v) >= 2 && v[1] < '5' && len(v) <= 4 {
			low++
		}
	}
	// With heavy skew most values land in the low half of the domain.
	if low < 400 {
		t.Errorf("skew ineffective: %d low values", low)
	}
}

func TestDatabaseInsertArityConflict(t *testing.T) {
	db := NewDatabase()
	if err := db.Insert("e", Tuple{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("e", Tuple{"a"}); err == nil {
		t.Error("expected arity conflict")
	}
}

func TestAddFactRejectsVariables(t *testing.T) {
	db := NewDatabase()
	if err := db.AddFact(cq.ParseAtomArgs("e", "X", "b")); err == nil {
		t.Error("expected error for non-ground fact")
	}
}
