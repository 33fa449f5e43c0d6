package engine

import (
	"hash/maphash"
	"math/bits"
)

// Interner is a symbol table mapping Values (cq.Const) to dense uint32
// ids. Every relation of a Database shares the database's interner, so
// tuples are stored and joined as integer rows: equality is id equality
// and join keys index arrays directly. Ids are assigned in first-intern
// order and never reused; the table only grows.
//
// The symbols live in vals, indexed by id, beside each one's hash; a
// slotTable over the ids finds a symbol in one probe sequence per call,
// and growing it re-places ids by their stored hashes without rehashing
// a string. The hash seed is per interner, but ids depend only on the
// order of first sight.
//
// An Interner is not safe for concurrent mutation; the engine mutates it
// only from Insert/JoinStep calls, which follow the Database's own
// single-writer discipline.
type Interner struct {
	seed   maphash.Seed
	vals   []Value
	hashes []uint64 // hashes[id] = maphash of vals[id]
	tab    slotTable
}

// NewInterner creates an empty symbol table.
func NewInterner() *Interner {
	return &Interner{seed: maphash.MakeSeed()}
}

// find returns v's id, or -1 and the empty slot where v belongs.
func (in *Interner) find(v Value, h uint64) (id int32, slot int) {
	for i := in.tab.home(h); ; i = in.tab.next(i) {
		e := in.tab.slots[i]
		if e == 0 {
			return -1, i
		}
		if id := e - 1; in.hashes[id] == h && in.vals[id] == v {
			return id, i
		}
	}
}

// ID interns v, assigning the next dense id on first sight.
func (in *Interner) ID(v Value) uint32 {
	if in.tab.full(len(in.vals)) {
		in.tab.grow(len(in.vals), len(in.vals)+1, func(id int) uint64 { return in.hashes[id] })
	}
	h := maphash.String(in.seed, string(v))
	id, slot := in.find(v, h)
	if id >= 0 {
		return uint32(id)
	}
	id = int32(len(in.vals))
	in.tab.slots[slot] = id + 1
	in.vals = append(in.vals, v)
	in.hashes = append(in.hashes, h)
	return uint32(id)
}

// Lookup returns v's id without interning it; ok is false when v has
// never been seen (no stored tuple can contain it).
func (in *Interner) Lookup(v Value) (uint32, bool) {
	if len(in.vals) == 0 {
		return 0, false
	}
	id, _ := in.find(v, maphash.String(in.seed, string(v)))
	return uint32(id), id >= 0
}

// Value resolves an id back to its symbol.
func (in *Interner) Value(id uint32) Value { return in.vals[id] }

// Len returns the number of interned symbols.
func (in *Interner) Len() int { return len(in.vals) }

// tuple materializes an interned row as a Tuple sharing the table's
// strings.
func (in *Interner) tuple(ids []uint32) Tuple {
	t := make(Tuple, len(ids))
	for i, id := range ids {
		t[i] = in.vals[id]
	}
	return t
}

// slotTable is the open-addressing core of the engine's hash tables
// (Interner, rowSet): a power-of-two array of member numbers, probed
// linearly from the top bits of a member's 64-bit hash. A slot holds
// number+1, so 0 marks it empty. The owner keeps the members and
// compares them; the table only says where to look. The load stays at
// most ½, so a probe sequence always ends at an empty slot.
type slotTable struct {
	slots []int32
	shift uint // 64 − log2(len(slots))
}

func (t *slotTable) home(h uint64) int { return int(h >> t.shift) }
func (t *slotTable) next(i int) int    { return (i + 1) & (len(t.slots) - 1) }

// full reports whether filing member number n, after members 0..n-1,
// would push the load past ½.
func (t *slotTable) full(n int) bool { return 2*(n+1) > len(t.slots) }

// grow resizes the table to hold need members at load ½ and re-places
// members 0..n-1 by hash(number).
func (t *slotTable) grow(n, need int, hash func(int) uint64) {
	size := 8
	for size < 2*need {
		size *= 2
	}
	t.slots = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for k := 0; k < n; k++ {
		t.place(hash(k), k)
	}
}

// place files member number k, known to be absent, at the first empty
// slot of its probe sequence.
func (t *slotTable) place(h uint64, k int) {
	i := t.home(h)
	for t.slots[i] != 0 {
		i = t.next(i)
	}
	t.slots[i] = int32(k + 1)
}

// fib is 2⁶⁴/φ, the Fibonacci hashing multiplier.
const fib = 0x9E3779B97F4A7C15

// mix scatters a word over the top bits a slotTable probes from. One
// Fibonacci multiply spreads sequential keys perfectly but clusters
// strided ones (keys with many trailing zeros, such as a packed row
// whose second column is fixed or whose ids step by 2¹⁶): the product's
// top bits then see only part of the multiplier. Folding the high half
// down and multiplying again makes every input bit reach the top.
func mix(k uint64) uint64 {
	k *= fib
	k ^= k >> 32
	return k * fib
}

// hashRow hashes an interned row without a seed: a row of width ≤ 2
// packs into one word, a wider one folds its ids in one at a time.
func hashRow(row []uint32) uint64 {
	switch len(row) {
	case 0:
		return 0
	case 1:
		return mix(uint64(row[0]))
	case 2:
		return mix(uint64(row[0])<<32 | uint64(row[1]))
	}
	var h uint64
	for _, id := range row {
		h = mix(h ^ uint64(id))
	}
	return h
}

// rowSet is the set-semantics guard over interned rows of one width. It
// stores no rows: a member is a row number into the owner's flat slab
// (data, width ids per row), which the owner passes to every call, so
// no row of any width is stored twice or allocates a key. Members are
// numbered 0, 1, … in the order they are filed, which is the slab's row
// order: the owner appends row k to data when add files it as k.
type rowSet struct {
	width int
	n     int // members filed: rows 0..n-1 of the slab
	tab   slotTable
}

func newRowSet(width int) *rowSet { return &rowSet{width: width} }

// row returns member k's ids in data.
func (s *rowSet) row(data []uint32, k int32) []uint32 {
	return data[int(k)*s.width : int(k+1)*s.width]
}

// lookup returns the number of the member equal to row, or -1 and the
// empty slot where row belongs.
func (s *rowSet) lookup(data, row []uint32, h uint64) (k int32, slot int) {
	for i := s.tab.home(h); ; i = s.tab.next(i) {
		e := s.tab.slots[i]
		if e == 0 {
			return -1, i
		}
		if m := s.row(data, e-1); equalRows(m, row) {
			return e - 1, i
		}
	}
}

// find returns the number of the member equal to row, or -1.
func (s *rowSet) find(data, row []uint32) int32 {
	if s.n == 0 {
		return -1
	}
	k, _ := s.lookup(data, row, hashRow(row))
	return k
}

// add files row as member s.n unless a member equals it. It returns the
// number of row's member and whether it was new; when new, the caller
// appends row to data. The row slice is not retained.
func (s *rowSet) add(data, row []uint32) (int32, bool) {
	if s.tab.full(s.n) {
		s.grow(data, s.n+1)
	}
	h := hashRow(row)
	k, slot := s.lookup(data, row, h)
	if k >= 0 {
		return k, false
	}
	k = int32(s.n)
	s.tab.slots[slot] = k + 1
	s.n++
	return k, true
}

// extend files rows s.n..n-1 of data, which the owner guarantees are
// distinct from each other and from the members: the catch-up for rows
// appended without probing.
func (s *rowSet) extend(data []uint32, n int) {
	if s.n < n && s.tab.full(n-1) {
		s.grow(data, n)
	}
	for ; s.n < n; s.n++ {
		s.tab.place(hashRow(s.row(data, int32(s.n))), s.n)
	}
}

func (s *rowSet) grow(data []uint32, need int) {
	s.tab.grow(s.n, need, func(k int) uint64 { return hashRow(s.row(data, int32(k))) })
}

func equalRows(a, b []uint32) bool {
	for i, id := range b {
		if a[i] != id {
			return false
		}
	}
	return true
}

// directSpan bounds the direct layout: a one-column key is indexed by
// address when its id span hi−lo+1 is at most directSpan times the row
// count, so the offset array never outweighs the row slab by more than
// that factor. Wider spans hash.
const directSpan = 4

// rowIndex is a relation's join index on one column set, built in one
// go by buildRowIndex; nothing inserts into it afterwards. bucket(key)
// is the row numbers whose columns equal key, in row order.
//
// Both layouts are one CSR over group numbers: the rows of group g are
// slab[off[g]:off[g+1]]. They differ in how a key names its group.
// Direct (one column, dense ids): g = id−lo, so a probe is a subtraction,
// two array loads and a slice. Hashed (zero or several columns, or a
// sparse span): keys numbers the distinct keys, held in keyData in
// first-seen order, and g is the key's number there.
type rowIndex struct {
	off     []int32
	slab    []int32
	lo      uint32
	keys    *rowSet // nil for the direct layout
	keyData []uint32
}

// buildRowIndex indexes r's rows on the given columns.
func buildRowIndex(r *Relation, cols []int) *rowIndex {
	if len(cols) == 1 && r.n > 0 {
		if ix := buildDirect(r, cols[0]); ix != nil {
			return ix
		}
	}
	ix := &rowIndex{keys: newRowSet(len(cols))}
	groups := make([]int32, r.n)
	key := make([]uint32, len(cols))
	for i := 0; i < r.n; i++ {
		row := r.irow(i)
		for k, c := range cols {
			key[k] = row[c]
		}
		g, added := ix.keys.add(ix.keyData, key)
		if added {
			ix.keyData = append(ix.keyData, key...)
		}
		groups[i] = g
	}
	ix.layout(r.n, ix.keys.n, func(i int) int { return int(groups[i]) })
	return ix
}

// buildDirect builds the direct layout on column c of a non-empty
// relation, or returns nil when the column's id span is too sparse.
func buildDirect(r *Relation, c int) *rowIndex {
	lo, hi := r.data[c], r.data[c]
	for i := c; i < len(r.data); i += r.Arity {
		lo, hi = min(lo, r.data[i]), max(hi, r.data[i])
	}
	if uint64(hi-lo) >= directSpan*uint64(r.n) {
		return nil
	}
	ix := &rowIndex{lo: lo}
	ix.layout(r.n, int(hi-lo)+1, func(i int) int { return int(r.data[i*r.Arity+c] - lo) })
	return ix
}

// layout counting-sorts row numbers 0..n-1 by group into off and slab.
// Counting group g at off[g+2] and prefix-summing leaves g's start at
// off[g+1]; filling rows in order advances it to g's end, which is
// g+1's start, so off[g:g+2] brackets group g.
func (ix *rowIndex) layout(n, groups int, group func(int) int) {
	off := make([]int32, groups+2)
	for i := 0; i < n; i++ {
		off[group(i)+2]++
	}
	for g := 2; g < len(off); g++ {
		off[g] += off[g-1]
	}
	slab := make([]int32, n)
	for i := 0; i < n; i++ {
		g := group(i) + 1
		slab[off[g]] = int32(i)
		off[g]++
	}
	ix.off, ix.slab = off[:groups+1], slab
}

// bucket returns the row numbers matching the key values (probe side).
func (ix *rowIndex) bucket(key []uint32) []int32 {
	// An id below lo wraps to a huge g, as does an absent key's -1, and
	// either fails the bound.
	var g uint32
	if ix.keys == nil {
		g = key[0] - ix.lo
	} else {
		g = uint32(ix.keys.find(ix.keyData, key))
	}
	if uint(g) >= uint(len(ix.off)-1) {
		return nil
	}
	return ix.slab[ix.off[g]:ix.off[g+1]]
}
