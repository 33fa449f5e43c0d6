package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"viewplan/internal/views"
)

// probeLength is the number of slots a successful lookup of member k
// inspects.
func probeLength(s *rowSet, data []uint32, k int32) int {
	i, n := s.tab.home(hashRow(s.row(data, k))), 1
	for s.tab.slots[i] != k+1 {
		i, n = s.tab.next(i), n+1
	}
	return n
}

// add and find agree with a map oracle for widths 0–5 under heavy
// duplication, across several grows, and members land in the slab in
// first-insert order.
func TestRowSetMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(absSeed(seed)))
		width := rnd.Intn(6)
		// A small pool of ids, some with high bits set, so rows repeat
		// often and packed words use both halves.
		pool := make([]uint32, 1+rnd.Intn(40))
		for i := range pool {
			pool[i] = uint32(rnd.Intn(64))
			if rnd.Intn(4) == 0 {
				pool[i] = math.MaxUint32 - pool[i]<<rnd.Intn(24)
			}
		}
		draw := func() []uint32 {
			row := make([]uint32, width)
			for j := range row {
				row[j] = pool[rnd.Intn(len(pool))]
			}
			return row
		}
		s := newRowSet(width)
		var data, order []uint32
		oracle := make(map[string]int32)
		for i := 0; i < 600; i++ {
			row := draw()
			key := fmt.Sprint(row)
			k, added := addRow(s, &data, row)
			if prev, ok := oracle[key]; ok != !added || ok && prev != k {
				t.Logf("width %d: add(%v) = %d, %v; oracle %d, %v", width, row, k, added, prev, ok)
				return false
			}
			if added {
				oracle[key] = k
				order = append(order, row...)
			}
			probe, want := draw(), int32(-1)
			if k, ok := oracle[fmt.Sprint(probe)]; ok {
				want = k
			}
			if got := s.find(data, probe); got != want {
				t.Logf("width %d: find(%v) = %d, oracle %d", width, probe, got, want)
				return false
			}
		}
		if s.n != len(oracle) || !slices.Equal(data, order) {
			t.Logf("width %d: %d members for %d distinct rows, or slab out of first-insert order", width, s.n, len(oracle))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Structured key sets of 200k rows, the shapes interned ids take, hash
// to short probe sequences: the mean successful probe inspects at most
// 1.5 slots.
func TestRowSetStructuredKeys(t *testing.T) {
	const n = 200000
	patterns := []struct {
		name  string
		width int
		row   func(i int, row []uint32)
	}{
		{"sequential", 1, func(i int, row []uint32) { row[0] = uint32(i) }},
		{"strided ×1024", 1, func(i int, row []uint32) { row[0] = uint32(i) << 10 }},
		{"strided ×2¹⁶", 2, func(i int, row []uint32) { row[0], row[1] = uint32(i>>16), uint32(i<<16) }},
		{"fixed column", 2, func(i int, row []uint32) { row[0], row[1] = uint32(i), 7 }},
		{"grid", 2, func(i int, row []uint32) { row[0], row[1] = uint32(i/448), uint32(i%448) }},
		{"width 3", 3, func(i int, row []uint32) { row[0], row[1], row[2] = uint32(i/3600), uint32(i/60%60), uint32(i%60) }},
	}
	for _, p := range patterns {
		s := newRowSet(p.width)
		var data []uint32
		row := make([]uint32, p.width)
		for i := 0; i < n; i++ {
			p.row(i, row)
			if _, added := addRow(s, &data, row); !added {
				t.Fatalf("%s: row %d %v reported present", p.name, i, row)
			}
		}
		total := 0
		for k := int32(0); k < n; k++ {
			total += probeLength(s, data, k)
		}
		mean := float64(total) / n
		t.Logf("%s: mean probe %.3f slots over %d slots", p.name, mean, len(s.tab.slots))
		if mean > 1.5 {
			t.Errorf("%s: mean probe %.3f slots, want ≤ 1.5", p.name, mean)
		}
	}
}

// Interner ids follow first sight, Value inverts ID, and Lookup finds
// exactly the interned symbols, "" included, across several grows.
func TestInternerMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(absSeed(seed)))
		in := NewInterner()
		oracle := make(map[Value]uint32)
		pool := 1 + rnd.Intn(200)
		sym := func() Value {
			if rnd.Intn(pool) == 0 {
				return ""
			}
			return Value("s" + strconv.Itoa(rnd.Intn(pool)))
		}
		for i := 0; i < 500; i++ {
			v := sym()
			want, seen := oracle[v]
			if !seen {
				want = uint32(len(oracle))
				oracle[v] = want
			}
			if id := in.ID(v); id != want || in.Value(id) != v {
				t.Logf("ID(%q) = %d, want %d", v, id, want)
				return false
			}
			probe := sym()
			id, ok := in.Lookup(probe)
			if wantID, wantOK := oracle[probe]; ok != wantOK || ok && id != wantID {
				t.Logf("Lookup(%q) = %d, %v; oracle %d, %v", probe, id, ok, wantID, wantOK)
				return false
			}
			if _, ok := in.Lookup("absent"); ok {
				t.Log("Lookup of a never-interned symbol succeeded")
				return false
			}
		}
		return in.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A view whose head keeps every column of its body is materialized
// without a dedup table; one that drops a column is deduplicated. The
// first Insert builds the table over the appended rows, so set
// semantics hold from then on.
func TestLazyRelationSet(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadFacts("e(a, 1). e(b, 1). e(c, 2)."); err != nil {
		t.Fatal(err)
	}
	vs, err := views.ParseSet("v(A, B) :- e(A, B).\nw(B, A, B) :- e(A, B).\nd(B) :- e(A, B).")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeViews(vs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"v", "w"} {
		if r := db.Relation(name); r.set.n != 0 || r.set.tab.slots != nil {
			t.Errorf("%s keeps every column of a set but built a dedup table of %d rows", name, r.set.n)
		}
	}
	if d := db.Relation("d"); d.Size() != 2 || d.set.n != 2 {
		t.Errorf("d drops a column: %d rows, %d in its dedup table; want 2 and 2", d.Size(), d.set.n)
	}

	v := db.Relation("v")
	if v.Insert(Tuple{"b", "1"}) {
		t.Error("Insert of an existing row reported new")
	}
	if !v.Insert(Tuple{"d", "3"}) || v.Insert(Tuple{"d", "3"}) {
		t.Error("Insert of a new row, then again, misreported")
	}
	for _, tc := range []struct {
		row  Tuple
		want bool
	}{{Tuple{"a", "1"}, true}, {Tuple{"d", "3"}, true}, {Tuple{"a", "2"}, false}, {Tuple{"nosuch", "1"}, false}} {
		if got := v.Contains(tc.row); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.row, got, tc.want)
		}
	}
	if got := fmt.Sprint(v.Rows()); got != "[[a 1] [b 1] [c 2] [d 3]]" {
		t.Errorf("rows = %s", got)
	}
}

// FuzzRowTables decodes a relation from the fuzz input: the first byte
// picks the width (0–4), then each byte is one symbol of one row (a
// width-0 row per byte), up to 256 bytes, since the index check is
// quadratic in the rows. It holds Relation's dedup table and the
// interner to map oracles, a second relation whose first half is
// appended without probing to the same answers, and every join index
// to a linear scan.
func FuzzRowTables(f *testing.F) {
	f.Add([]byte{2, 1, 2, 2, 1, 1, 2, 0, 0, 1, 2})
	f.Add([]byte{0, 9, 9})
	f.Add([]byte{3, 1, 2, 3, 3, 2, 1, 1, 2, 3, 0, 0, 0, 40, 41, 42})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		width := int(b[0] % 5)
		b = b[1:min(len(b), 257)]
		r := NewRelation("r", width)
		rows := make(map[string]int)
		ids := make(map[Value]uint32)
		var order []Tuple
		for len(b) > 0 && (width == 0 || len(b) >= width) {
			row := make(Tuple, width)
			for j := range row {
				if b[j]%16 != 0 {
					row[j] = Value(strconv.Itoa(int(b[j] % 64)))
				}
				if _, ok := ids[row[j]]; !ok {
					ids[row[j]] = uint32(len(ids))
				}
			}
			b = b[max(width, 1):]
			_, dup := rows[row.Key()]
			if r.Insert(row) == dup {
				t.Fatalf("Insert(%v) new = %v, oracle duplicate = %v", row, !dup, dup)
			}
			if !dup {
				rows[row.Key()] = len(order)
				order = append(order, row)
			}
		}
		for v, want := range ids {
			if id, ok := r.in.Lookup(v); !ok || id != want {
				t.Fatalf("Lookup(%q) = %d, %v; want %d in first-seen order", v, id, ok, want)
			}
		}
		if _, ok := r.in.Lookup("absent"); ok {
			t.Fatal("Lookup of a never-interned symbol succeeded")
		}
		if got := r.Rows(); fmt.Sprint(got) != fmt.Sprint(order) {
			t.Fatalf("rows %v, want %v", got, order)
		}
		for _, row := range order {
			if !r.Contains(row) {
				t.Fatalf("Contains(%v) = false", row)
			}
		}

		lazy := newRelationIn("lazy", width, r.in)
		for i := 0; i < r.n/2; i++ {
			lazy.appendRow(r.irow(i))
		}
		for i := 0; i < r.n; i++ {
			if lazy.insertIDs(r.irow(i)) != (i >= r.n/2) {
				t.Fatalf("row %d of %d: insert after %d appended rows misreported", i, r.n, r.n/2)
			}
		}

		for _, cols := range columnLists(width) {
			ix := r.indexFor(cols)
			key := make([]uint32, len(cols))
			for i := 0; i <= r.n; i++ {
				for k, c := range cols {
					if i < r.n {
						key[k] = r.irow(i)[c]
					} else {
						key[k] = uint32(r.in.Len()) // never interned
					}
				}
				if got, want := ix.bucket(key), scanBucket(r, cols, key); !slices.Equal(got, want) {
					t.Fatalf("cols %v, key %v: bucket %v, scan %v", cols, key, got, want)
				}
			}
		}
	})
}
