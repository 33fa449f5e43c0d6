package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"viewplan/internal/cq"
	"viewplan/internal/obs"
)

func TestInternerRoundTrip(t *testing.T) {
	in := NewInterner()
	ids := make(map[uint32]bool)
	for _, v := range []Value{"a", "b", "", "a", "c", "b"} {
		id := in.ID(v)
		if got := in.Value(id); got != v {
			t.Errorf("Value(ID(%q)) = %q", v, got)
		}
		ids[id] = true
	}
	if in.Len() != 4 || len(ids) != 4 {
		t.Errorf("interned %d symbols over %d ids, want 4", in.Len(), len(ids))
	}
	if _, ok := in.Lookup("zzz"); ok {
		t.Error("Lookup of never-interned value succeeded")
	}
	if id, ok := in.Lookup(""); !ok || in.Value(id) != Value("") {
		t.Error("empty string must intern like any value")
	}
}

// addRow files row in s over the slab *data, appending it when new, as
// every owner of a rowSet does.
func addRow(s *rowSet, data *[]uint32, row []uint32) (int32, bool) {
	k, added := s.add(*data, row)
	if added {
		*data = append(*data, row...)
	}
	return k, added
}

func TestRowSetWideAndNarrow(t *testing.T) {
	for _, width := range []int{0, 1, 2, 3, 5} {
		s := newRowSet(width)
		var data []uint32
		row := make([]uint32, width)
		if k, added := addRow(s, &data, row); !added || k != 0 {
			t.Fatalf("width %d: first add = %d, %v; want 0, new", width, k, added)
		}
		if k, added := addRow(s, &data, row); added || k != 0 {
			t.Fatalf("width %d: duplicate add = %d, %v; want 0, not new", width, k, added)
		}
		if s.find(data, row) != 0 {
			t.Fatalf("width %d: find misses inserted row", width)
		}
		if width > 0 {
			row[width-1] = 7
			if s.find(data, row) >= 0 {
				t.Fatalf("width %d: find matches absent row", width)
			}
			if k, added := addRow(s, &data, row); !added || k != 1 {
				t.Fatalf("width %d: distinct row = %d, %v; want 1, new", width, k, added)
			}
		}
	}
}

// Two-column rows pack into one hashed word, which must not conflate
// (a, b) with (b, a) or (x, 0) with (0, x): each is its own member.
func TestPackNarrowCollisionFree(t *testing.T) {
	pairs := [][2]uint32{{1, 2}, {2, 1}, {0, 3}, {3, 0}, {1 << 20, 0}, {0, 1 << 20}}
	s := newRowSet(2)
	var data []uint32
	for i, p := range pairs {
		if k, added := addRow(s, &data, p[:]); !added || k != int32(i) {
			t.Errorf("add(%v) = %d, %v; want %d, new", p, k, added, i)
		}
	}
	for i, p := range pairs {
		if k := s.find(data, p[:]); k != int32(i) {
			t.Errorf("find(%v) = %d, want %d", p, k, i)
		}
	}
}

// The regression the relation.go comment promises: indexFor returns the
// identical cached index until an insert, after which a rebuilt index
// reflecting the new row is returned.
func TestIndexOnCacheIdentityInvalidatedByInsert(t *testing.T) {
	r := NewRelation("e", 2)
	r.Insert(Tuple{"a", "1"})
	r.Insert(Tuple{"b", "2"})

	ix1 := r.indexFor([]int{0})
	if r.indexFor([]int{0}) != ix1 {
		t.Error("repeated indexFor did not return the cached index")
	}

	// A duplicate insert is a no-op and must not invalidate.
	if r.Insert(Tuple{"a", "1"}) {
		t.Fatal("duplicate insert reported new")
	}
	if r.indexFor([]int{0}) != ix1 {
		t.Error("duplicate insert invalidated the cached index")
	}

	// A real insert rebuilds the index with the new row visible.
	r.Insert(Tuple{"c", "3"})
	ix3 := r.indexFor([]int{0})
	if ix3 == ix1 {
		t.Error("insert did not invalidate the cached index")
	}
	id, ok := r.in.Lookup("c")
	if !ok {
		t.Fatal("value not interned")
	}
	if got := ix3.bucket([]uint32{id}); len(got) != 1 || got[0] != 2 {
		t.Errorf("rebuilt index misses the new row: %v", got)
	}
}

// scanBucket is the reference for rowIndex.bucket: the row numbers whose
// columns equal key, found by a linear scan in row order.
func scanBucket(r *Relation, cols []int, key []uint32) []int32 {
	var out []int32
	for i := 0; i < r.n; i++ {
		row := r.irow(i)
		match := true
		for k, c := range cols {
			match = match && row[c] == key[k]
		}
		if match {
			out = append(out, int32(i))
		}
	}
	return out
}

// columnLists returns every list of up to three distinct columns of a
// width-w relation, in every order: for w = 3, widths 0 through 3.
func columnLists(w int) [][]int {
	lists := [][]int{nil}
	for start := 0; start < len(lists); start++ {
		l := lists[start]
		if len(l) == 3 {
			continue
		}
		for c := 0; c < w; c++ {
			if !slices.Contains(l, c) {
				lists = append(lists, append(slices.Clone(l), c))
			}
		}
	}
	return lists
}

// randomIndexedRelation builds an arity-3 relation of 0–49 rows. Half
// the draws intern filler symbols before every row, so the ids a row
// introduces lie far apart and its columns' spans go sparse.
func randomIndexedRelation(rnd *rand.Rand) *Relation {
	r := NewRelation("r", 3)
	pad := func(k int) {
		for ; k > 0; k-- {
			r.in.ID(Value("pad" + strconv.Itoa(r.in.Len())))
		}
	}
	pad(rnd.Intn(4)) // so lo is usually above id 0
	n := rnd.Intn(50)
	sparse := rnd.Intn(2) == 0
	pool := 1 + rnd.Intn(2*n+1)
	row := make(Tuple, 3)
	for i := 0; i < n; i++ {
		if sparse {
			pad(4 + rnd.Intn(8))
		}
		for j := range row {
			row[j] = Value("v" + strconv.Itoa(rnd.Intn(pool)))
		}
		r.Insert(row)
	}
	return r
}

// checkRowIndex probes every index of r against scanBucket. One-column
// keys are probed with every interned id, one past the last, and the
// largest id: below lo, above hi, and absent inside the span. Wider keys
// are probed with every row's key and with that key one id off. It
// returns the number of direct one-column indexes it saw.
func checkRowIndex(r *Relation, rnd *rand.Rand) (direct int, err error) {
	ids := []uint32{math.MaxUint32}
	for id := 0; id <= r.in.Len(); id++ {
		ids = append(ids, uint32(id))
	}
	for _, cols := range columnLists(3) {
		ix := r.indexFor(cols)
		var keys [][]uint32
		switch len(cols) {
		case 0:
			keys = [][]uint32{{}}
		case 1:
			if ix.keys == nil {
				direct++
			}
			for _, id := range ids {
				keys = append(keys, []uint32{id})
			}
		default:
			for i := 0; i < r.n; i++ {
				key := make([]uint32, len(cols))
				for k, c := range cols {
					key[k] = r.irow(i)[c]
				}
				miss := slices.Clone(key)
				miss[rnd.Intn(len(miss))] = ids[rnd.Intn(len(ids))]
				keys = append(keys, key, miss)
			}
		}
		for _, key := range keys {
			if got, want := ix.bucket(key), scanBucket(r, cols, key); !slices.Equal(got, want) {
				return direct, fmt.Errorf("%d rows, cols %v, key %v: bucket %v, scan %v", r.n, cols, key, got, want)
			}
		}
	}
	return direct, nil
}

// Both rowIndex layouts return exactly what a linear scan finds, in row
// order, for every column list and probe key, including the empty and
// one-row relations.
func TestRowIndexMatchesScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	empty := NewRelation("r", 3)
	one := NewRelation("r", 3)
	one.Insert(Tuple{"a", "b", "a"})
	for _, r := range []*Relation{empty, one} {
		if _, err := checkRowIndex(r, rnd); err != nil {
			t.Fatal(err)
		}
	}
	direct, hashed := 0, 0
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(absSeed(seed)))
		d, err := checkRowIndex(randomIndexedRelation(rnd), rnd)
		if err != nil {
			t.Log(err)
			return false
		}
		direct, hashed = direct+d, hashed+3-d
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	} else if direct == 0 || hashed == 0 {
		t.Errorf("one-column indexes: %d direct, %d hashed; the draws must exercise both layouts", direct, hashed)
	}
}

// The layout is chosen from the relation at build time: a dense column
// is direct, a sparse column and a two-column key hash, and an insert
// whose id lies beyond the old span rebuilds a direct index that finds
// the new row.
func TestRowIndexLayoutChoice(t *testing.T) {
	r := NewRelation("e", 2)
	for i := 0; i < 10; i++ {
		r.Insert(Tuple{Value("k" + strconv.Itoa(i)), "x"})
	}
	if r.indexFor([]int{0}).keys != nil {
		t.Error("dense column 0 hashed")
	}
	if r.indexFor([]int{0, 1}).keys == nil {
		t.Error("two-column key took the direct layout")
	}
	// After 40 fresh symbols "far" gets id 51: 52 ids over 11 rows.
	for i := 0; i < 40; i++ {
		r.in.ID(Value("pad" + strconv.Itoa(i)))
	}
	r.Insert(Tuple{"far", "x"})
	if r.indexFor([]int{0}).keys == nil {
		t.Error("sparse column 0 took the direct layout")
	}
	// Ten more rows over the padding make the span dense again.
	for i := 0; i < 10; i++ {
		r.Insert(Tuple{Value("pad" + strconv.Itoa(i)), "y"})
	}
	old := r.indexFor([]int{0})
	if old.keys != nil {
		t.Fatal("column 0 hashed after it became dense")
	}
	r.Insert(Tuple{"next", "z"}) // beyond the old index's hi
	ix := r.indexFor([]int{0})
	if ix == old || ix.keys != nil {
		t.Fatal("insert beyond hi did not rebuild a direct index")
	}
	id, _ := r.in.Lookup("next")
	if got := ix.bucket([]uint32{id}); !slices.Equal(got, []int32{21}) {
		t.Errorf("bucket(next) = %v, want [21]", got)
	}
	if got := old.bucket([]uint32{id}); len(got) != 0 {
		t.Errorf("old index bucket(next) = %v, want empty", got)
	}
}

// Constant-bound subgoals score better than unbound ones of equal size,
// so greedy ordering starts with them (they prune hardest).
func TestGreedyOrderConstantBoundFirst(t *testing.T) {
	db := NewDatabase()
	gen := NewDataGen(1, 20)
	gen.Fill(db, "e", 2, 30)
	gen.Fill(db, "f", 2, 30)
	body := cq.MustParseQuery("q(X, Y) :- e(X, Y), f(Y, c1)").Body
	order := db.greedyOrder(body)
	if order[0] != 1 {
		t.Errorf("order = %v, want the constant-bound subgoal f(Y, c1) first", order)
	}
	// After f binds Y, e joins on a bound variable.
	if order[1] != 0 {
		t.Errorf("order = %v", order)
	}
}

// Equal scores break ties on the lowest body index, and the order is a
// pure function of the database and body: rerunning must reproduce it.
func TestGreedyOrderDeterministicTieBreak(t *testing.T) {
	db := NewDatabase()
	gen := NewDataGen(7, 10)
	gen.Fill(db, "e", 2, 25)
	// Three structurally identical subgoals over the same relation: all
	// scores tie, so the greedy order must be the body order.
	body := cq.MustParseQuery("q(A, B, C) :- e(A, B), e(B, C), e(C, A)").Body
	first := db.greedyOrder(body)
	if first[0] != 0 {
		t.Errorf("tie not broken by first index: %v", first)
	}
	for i := 0; i < 5; i++ {
		if got := db.greedyOrder(body); !reflect.DeepEqual(got, first) {
			t.Fatalf("greedyOrder unstable: %v then %v", first, got)
		}
	}
}

// One atom mixing a repeated variable and a constant: e(X, X, k) must
// keep only rows whose first two columns agree and whose third is k.
func TestJoinStepRepeatedVarAndConstantSameAtom(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadFacts("e(a, a, k). e(a, b, k). e(b, b, k). e(c, c, x)."); err != nil {
		t.Fatal(err)
	}
	out, err := db.JoinStep(UnitVarRelation(), cq.MustParseQuery("q(X) :- e(X, X, k)").Body[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Schema) != 1 || out.Schema[0] != cq.Var("X") {
		t.Fatalf("schema = %v", out.Schema)
	}
	got := map[Value]bool{}
	for _, row := range out.Rows() {
		got[row[0]] = true
	}
	if len(got) != 2 || !got["a"] || !got["b"] {
		t.Errorf("rows = %v, want {a, b}", got)
	}

	// The repeated variable also constrains join columns when bound:
	// joining {X=a} with e(X, X, k) keeps only (a, a, k).
	cur := NewVarRelation(Schema{"X"})
	cur.Insert(Tuple{"a"})
	cur.Insert(Tuple{"c"})
	out2, err := db.JoinStep(cur, cq.MustParseQuery("q(X) :- e(X, X, k)").Body[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Size() != 1 || out2.Rows()[0][0] != Value("a") {
		t.Errorf("bound join rows = %v, want just (a)", out2.Rows())
	}
}

// A constant the database has never stored anywhere cannot match: the
// kernel short-circuits to an empty result without probing.
func TestJoinStepUnknownConstantEmpty(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadFacts("e(a, b)."); err != nil {
		t.Fatal(err)
	}
	out, err := db.JoinStep(UnitVarRelation(), cq.MustParseQuery("q(X) :- e(X, nosuch)").Body[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 0 {
		t.Errorf("rows = %v, want none", out.Rows())
	}
}

// By default an unknown predicate joins as empty but is observable: the
// unknown_predicates counter ticks. In strict mode it is a distinct
// error identifying the predicate.
func TestJoinStepUnknownPredicate(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadFacts("e(a, b)."); err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	db.SetTracer(tr)
	atom := cq.MustParseQuery("q(X) :- ghost(X)").Body[0]
	out, err := db.JoinStep(UnitVarRelation(), atom, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 0 {
		t.Errorf("unknown predicate joined %d rows", out.Size())
	}
	if got := tr.Counter(obs.CtrUnknownPreds); got != 1 {
		t.Errorf("unknown_predicates = %d, want 1", got)
	}

	db.SetStrictPredicates(true)
	_, err = db.JoinStep(UnitVarRelation(), atom, nil)
	var upe *UnknownPredicateError
	if !errors.As(err, &upe) {
		t.Fatalf("strict mode error = %v, want *UnknownPredicateError", err)
	}
	if upe.Pred != "ghost" {
		t.Errorf("error names %q, want ghost", upe.Pred)
	}
	db.SetStrictPredicates(false)
	if _, err := db.JoinStep(UnitVarRelation(), atom, nil); err != nil {
		t.Errorf("lenient mode errored: %v", err)
	}
}

// A left relation built outside the database (its own symbol table) must
// join correctly: the kernel translates it into the database's table.
func TestJoinStepForeignInternerLeft(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadFacts("e(a, b). e(b, c)."); err != nil {
		t.Fatal(err)
	}
	cur := NewVarRelation(Schema{"X", "Z"})
	cur.Insert(Tuple{"a", "keepme"}) // "keepme" exists only in cur's table
	cur.Insert(Tuple{"z", "w"})
	out, err := db.JoinStep(cur, cq.MustParseQuery("q(X, Y) :- e(X, Y)").Body[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 1 {
		t.Fatalf("rows = %v, want one", out.Rows())
	}
	row := out.Rows()[0]
	if fmt.Sprint(row) != "[a keepme b]" {
		t.Errorf("row = %v, want [a keepme b]", row)
	}
}

// Lazy string rows must track inserts: Rows() extends incrementally and
// SortedRows stays correct after growth.
func TestLazyRowsTrackInserts(t *testing.T) {
	r := NewRelation("e", 1)
	r.Insert(Tuple{"b"})
	if got := r.Rows(); len(got) != 1 || got[0][0] != Value("b") {
		t.Fatalf("rows = %v", got)
	}
	r.Insert(Tuple{"a"})
	if got := r.Rows(); len(got) != 2 || got[1][0] != Value("a") {
		t.Fatalf("rows after insert = %v", got)
	}
	sorted := r.SortedRows()
	if sorted[0][0] != Value("a") || sorted[1][0] != Value("b") {
		t.Errorf("sorted = %v", sorted)
	}
}
