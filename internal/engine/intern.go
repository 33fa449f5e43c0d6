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

// rowIndex is a hash index over a relation's interned rows for one
// column set: buckets of row numbers keyed by the packed column values.
type rowIndex struct {
	width  int
	narrow map[uint64][]int32
	wide   map[string][]int32
	buf    []byte
}

func newRowIndex(width int) *rowIndex {
	ix := &rowIndex{width: width}
	if width <= 2 {
		ix.narrow = make(map[uint64][]int32)
	} else {
		ix.wide = make(map[string][]int32)
	}
	return ix
}

// insert files row number ri under the key values.
func (ix *rowIndex) insert(key []uint32, ri int32) {
	if ix.width <= 2 {
		k := packNarrow(key)
		ix.narrow[k] = append(ix.narrow[k], ri)
		return
	}
	ix.buf = appendIDs(ix.buf[:0], key)
	ix.wide[string(ix.buf)] = append(ix.wide[string(ix.buf)], ri)
}

// bucket returns the row numbers matching the key values (probe side).
func (ix *rowIndex) bucket(key []uint32) []int32 {
	if ix.width <= 2 {
		return ix.narrow[packNarrow(key)]
	}
	ix.buf = appendIDs(ix.buf[:0], key)
	return ix.wide[string(ix.buf)]
}
