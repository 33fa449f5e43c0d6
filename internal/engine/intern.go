package engine

import "encoding/binary"

// Interner is a symbol table mapping Values (cq.Const) to dense uint32
// ids. Every relation of a Database shares the database's interner, so
// tuples are stored and joined as integer rows: equality is id equality,
// join keys pack into machine words, and the per-probe string building
// of a naive map[string] design disappears from the hot path. Ids are
// assigned in first-intern order and never reused; the table only grows.
//
// An Interner is not safe for concurrent mutation; the engine mutates it
// only from Insert/JoinStep calls, which follow the Database's own
// single-writer discipline.
type Interner struct {
	ids  map[Value]uint32
	vals []Value
}

// NewInterner creates an empty symbol table.
func NewInterner() *Interner {
	return &Interner{ids: make(map[Value]uint32)}
}

// ID interns v, assigning the next dense id on first sight.
func (in *Interner) ID(v Value) uint32 {
	if id, ok := in.ids[v]; ok {
		return id
	}
	id := uint32(len(in.vals))
	in.ids[v] = id
	in.vals = append(in.vals, v)
	return id
}

// Lookup returns v's id without interning it; ok is false when v has
// never been seen (no stored tuple can contain it).
func (in *Interner) Lookup(v Value) (uint32, bool) {
	id, ok := in.ids[v]
	return id, ok
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

// packNarrow packs a row of width ≤ 2 into one collision-free uint64:
// the fixed-width integer fast path for join probes and seen-sets. The
// caller guarantees the width; rows of width 0 share the single key 0.
func packNarrow(ids []uint32) uint64 {
	switch len(ids) {
	case 0:
		return 0
	case 1:
		return uint64(ids[0])
	default:
		return uint64(ids[0])<<32 | uint64(ids[1])
	}
}

// appendIDs appends the little-endian bytes of each id to buf: the
// collision-free fallback key for rows wider than two columns (fixed
// width per map, so no length prefixes are needed).
func appendIDs(buf []byte, ids []uint32) []byte {
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return buf
}

// rowSet is the set-semantics guard over interned rows: packed uint64
// keys up to width 2, byte-appended string keys beyond. Lookups are
// allocation-free (the map[string] probe with a []byte conversion does
// not allocate); only a genuinely new wide row allocates its key.
type rowSet struct {
	width  int
	narrow map[uint64]struct{}
	wide   map[string]struct{}
	buf    []byte
}

func newRowSet(width int) *rowSet {
	s := &rowSet{width: width}
	if width <= 2 {
		s.narrow = make(map[uint64]struct{})
	} else {
		s.wide = make(map[string]struct{})
	}
	return s
}

// add inserts the row, reporting whether it was new. The ids slice is
// not retained.
func (s *rowSet) add(ids []uint32) bool {
	if s.width <= 2 {
		k := packNarrow(ids)
		if _, dup := s.narrow[k]; dup {
			return false
		}
		s.narrow[k] = struct{}{}
		return true
	}
	s.buf = appendIDs(s.buf[:0], ids)
	if _, dup := s.wide[string(s.buf)]; dup {
		return false
	}
	s.wide[string(s.buf)] = struct{}{}
	return true
}

// has reports membership without inserting.
func (s *rowSet) has(ids []uint32) bool {
	if s.width <= 2 {
		_, ok := s.narrow[packNarrow(ids)]
		return ok
	}
	s.buf = appendIDs(s.buf[:0], ids)
	_, ok := s.wide[string(s.buf)]
	return ok
}

// directSpan bounds the direct layout: a one-column key is indexed by
// address when its id span hi−lo+1 is at most directSpan times the row
// count, so the offset array never outweighs the row slab by more than
// that factor. Wider spans hash.
const directSpan = 4

// rowIndex is a relation's join index on one column set, built in one
// go by buildRowIndex; nothing inserts into it afterwards. bucket(key)
// is the row numbers whose columns equal key, in row order, whichever
// layout the build chose.
//
// Direct (one column, dense ids): a counting sort. The rows with id
// lo+k are slab[off[k]:off[k+1]], so a probe is two array loads and a
// slice, with no hashing and no per-bucket allocation.
//
// Hash (zero or several columns, or a sparse span): buckets of row
// numbers keyed by the packed column values.
type rowIndex struct {
	lo   uint32
	off  []int32 // direct layout when non-nil; len = span+1
	slab []int32

	width  int
	narrow map[uint64][]int32
	wide   map[string][]int32
	buf    []byte
}

// buildRowIndex indexes r's rows on the given columns.
func buildRowIndex(r *Relation, cols []int) *rowIndex {
	if len(cols) == 1 && r.n > 0 {
		if ix := buildDirect(r, cols[0]); ix != nil {
			return ix
		}
	}
	ix := &rowIndex{width: len(cols)}
	if ix.width <= 2 {
		ix.narrow = make(map[uint64][]int32)
	} else {
		ix.wide = make(map[string][]int32)
	}
	key := make([]uint32, len(cols))
	for i := 0; i < r.n; i++ {
		row := r.irow(i)
		for k, c := range cols {
			key[k] = row[c]
		}
		ix.insert(key, int32(i))
	}
	return ix
}

// insert files row number ri under the key values (hash layout).
func (ix *rowIndex) insert(key []uint32, ri int32) {
	if ix.width <= 2 {
		k := packNarrow(key)
		ix.narrow[k] = append(ix.narrow[k], ri)
		return
	}
	ix.buf = appendIDs(ix.buf[:0], key)
	ix.wide[string(ix.buf)] = append(ix.wide[string(ix.buf)], ri)
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
	// Count id lo+k at off[k+2]; the prefix sum then leaves bucket k's
	// start at off[k+1], and filling rows in order advances it to bucket
	// k's end, which is bucket k+1's start: off[k:k+2] brackets bucket k.
	span := int(hi-lo) + 1
	off := make([]int32, span+2)
	for i := c; i < len(r.data); i += r.Arity {
		off[r.data[i]-lo+2]++
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	slab := make([]int32, r.n)
	for i := 0; i < r.n; i++ {
		k := r.data[i*r.Arity+c] - lo + 1
		slab[off[k]] = int32(i)
		off[k]++
	}
	return &rowIndex{lo: lo, off: off[:span+1], slab: slab}
}

// bucket returns the row numbers matching the key values (probe side).
func (ix *rowIndex) bucket(key []uint32) []int32 {
	if ix.off != nil {
		// An id below lo wraps to a huge k and fails the bound too.
		k := key[0] - ix.lo
		if uint(k) >= uint(len(ix.off)-1) {
			return nil
		}
		return ix.slab[ix.off[k]:ix.off[k+1]]
	}
	if ix.width <= 2 {
		return ix.narrow[packNarrow(key)]
	}
	ix.buf = appendIDs(ix.buf[:0], key)
	return ix.wide[string(ix.buf)]
}
