// Package engine is a small in-memory relational engine: named relations
// with set semantics, conjunctive-query evaluation by pipelined index
// joins, and view materialization. It is the execution substrate for the
// cost models of Sections 5 and 6 — physical plans are simulated on real
// data so intermediate-relation and generalized-supplementary-relation
// sizes are measured, not estimated.
//
// Internally every relation stores interned integer rows (see Interner):
// values are mapped to dense uint32 ids once at insert, and all joins,
// dedup sets, and indexes operate on those rows. The string Tuple API
// remains the public surface; string rows materialize lazily.
package engine

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"viewplan/internal/cq"
)

// Value is a database constant. It aliases cq.Const so ground atoms flow
// between the logical and physical layers without conversion.
type Value = cq.Const

// Tuple is one row of a relation.
type Tuple []Value

// Key returns a collision-free string encoding of the tuple
// (length-prefixed so values containing separators cannot collide).
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(string(v))
	}
	return b.String()
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Relation is a named relation with set semantics: inserting a duplicate
// row is a no-op. Rows are stored as interned ids in one flat slice
// (Arity ids per row), so an insert costs one probe of a table of row
// numbers into that slice and an append, no per-row allocation. Join
// indexes (rowIndex: direct-address for a dense one-column key, hashed
// otherwise) are cached per column set and invalidated by inserts, so
// repeated planning over the same materialized views (the optimizer
// probes each view relation many times) pays the index build once.
type Relation struct {
	Name  string
	Arity int

	in      *Interner
	data    []uint32
	n       int
	set     rowSet  // as VarRelation.set
	rows    []Tuple // lazy string-row cache: first len(rows) of the n rows
	scratch []uint32

	indexes []colsIndex // join indexes by column set (indexFor)
}

// colsIndex is one cached join index and the columns it keys on.
type colsIndex struct {
	cols []int
	ix   *rowIndex
}

// NewRelation creates an empty standalone relation with its own private
// symbol table. Relations created through a Database share the
// database's table instead (Database.Create).
func NewRelation(name string, arity int) *Relation {
	return newRelationIn(name, arity, NewInterner())
}

func newRelationIn(name string, arity int, in *Interner) *Relation {
	return &Relation{Name: name, Arity: arity, in: in, set: rowSet{width: arity}}
}

// irow returns row i as a view into the flat storage (do not modify).
func (r *Relation) irow(i int) []uint32 {
	return r.data[i*r.Arity : (i+1)*r.Arity]
}

// Insert adds a row, reporting whether it was new. It panics on arity
// mismatch (an internal programming error, not a data error).
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("engine: inserting %d-tuple into %s/%d", len(t), r.Name, r.Arity))
	}
	if cap(r.scratch) < r.Arity {
		r.scratch = make([]uint32, r.Arity)
	}
	ids := r.scratch[:r.Arity]
	for i, v := range t {
		ids[i] = r.in.ID(v)
	}
	return r.insertIDs(ids)
}

// insertIDs adds an interned row (ids are copied, not retained).
func (r *Relation) insertIDs(ids []uint32) bool {
	if r.set.n < r.n {
		r.set.extend(r.data, r.n)
	}
	if _, added := r.set.add(r.data, ids); !added {
		return false
	}
	r.appendRow(ids)
	return true
}

// appendRow adds a row the caller knows r does not hold, without
// probing (ids are copied, not retained).
func (r *Relation) appendRow(ids []uint32) {
	r.data = append(r.data, ids...)
	r.n++
	r.indexes = nil // cached indexes are stale
}

// indexFor returns the join index on the given columns, building and
// caching it on first use. A relation is joined on a handful of column
// sets at most, so the cache is a list scanned by value: a lookup
// allocates nothing.
func (r *Relation) indexFor(cols []int) *rowIndex {
	for _, e := range r.indexes {
		if slices.Equal(e.cols, cols) {
			return e.ix
		}
	}
	ix := buildRowIndex(r, cols)
	r.indexes = append(r.indexes, colsIndex{slices.Clone(cols), ix})
	return ix
}

// Size returns the number of rows.
func (r *Relation) Size() int { return r.n }

// Rows returns the rows in insertion order. The slice and its tuples must
// not be modified. String tuples are materialized lazily from the
// interned storage on first call and extended incrementally after
// inserts.
func (r *Relation) Rows() []Tuple {
	for len(r.rows) < r.n {
		r.rows = append(r.rows, r.in.tuple(r.irow(len(r.rows))))
	}
	return r.rows
}

// Contains reports whether the relation holds the tuple.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.Arity {
		return false
	}
	if cap(r.scratch) < r.Arity {
		r.scratch = make([]uint32, r.Arity)
	}
	ids := r.scratch[:r.Arity]
	for i, v := range t {
		id, ok := r.in.Lookup(v)
		if !ok {
			return false
		}
		ids[i] = id
	}
	r.set.extend(r.data, r.n)
	return r.set.find(r.data, ids) >= 0
}

// SortedRows returns the rows in lexicographic order (for deterministic
// output).
func (r *Relation) SortedRows() []Tuple {
	rows := r.Rows()
	out := make([]Tuple, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool { return tupleLess(out[i], out[j]) })
	return out
}

func tupleLess(a, b Tuple) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// String renders the relation as name(arity)[size].
func (r *Relation) String() string {
	return fmt.Sprintf("%s/%d[%d rows]", r.Name, r.Arity, r.Size())
}

// Schema is an ordered list of variables naming the columns of an
// intermediate (variable-schema) relation.
type Schema []cq.Var

// IndexOf returns the column of v, or -1.
func (s Schema) IndexOf(v cq.Var) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// VarRelation is an intermediate relation whose columns are query
// variables: the IR_i / GSR_i of the paper's cost models. Like Relation
// it stores interned rows flat; the string Rows view is lazy.
type VarRelation struct {
	Schema Schema

	in   *Interner
	data []uint32
	n    int
	// set is the dedup table over the first set.n rows; it may lag
	// behind n. An operator whose output is a set by construction
	// appends its rows without probing it: JoinStep, a Project that
	// keeps every column of its set input, the executor's drain under a
	// head that does (drainStream), so such a relation never builds a
	// table. An Insert (or
	// Relation.Contains) first extends the table over the rows appended
	// since. Relation.set follows the same rule.
	set     rowSet
	rows    []Tuple // lazy string-row cache
	scratch []uint32
}

// NewVarRelation creates an empty standalone intermediate relation over
// the schema with its own private symbol table. The engine's join kernel
// creates its intermediates bound to the database's table instead.
func NewVarRelation(schema Schema) *VarRelation {
	return newVarRelationIn(schema, NewInterner())
}

func newVarRelationIn(schema Schema, in *Interner) *VarRelation {
	return &VarRelation{Schema: schema, in: in, set: rowSet{width: len(schema)}}
}

// UnitVarRelation returns the join identity: an empty schema with one
// empty row.
func UnitVarRelation() *VarRelation {
	vr := NewVarRelation(nil)
	vr.Insert(Tuple{})
	return vr
}

// irow returns row i as a view into the flat storage (do not modify).
func (vr *VarRelation) irow(i int) []uint32 {
	w := len(vr.Schema)
	return vr.data[i*w : (i+1)*w]
}

// Insert adds a row with set semantics, reporting whether it was new.
func (vr *VarRelation) Insert(t Tuple) bool {
	if len(t) != len(vr.Schema) {
		panic(fmt.Sprintf("engine: inserting %d-tuple into schema of %d columns", len(t), len(vr.Schema)))
	}
	if cap(vr.scratch) < len(t) {
		vr.scratch = make([]uint32, len(t))
	}
	ids := vr.scratch[:len(t)]
	for i, v := range t {
		ids[i] = vr.in.ID(v)
	}
	return vr.insertIDs(ids)
}

// insertIDs adds an interned row (ids are copied, not retained).
func (vr *VarRelation) insertIDs(ids []uint32) bool {
	if vr.set.n < vr.n {
		vr.set.extend(vr.data, vr.n)
	}
	if _, added := vr.set.add(vr.data, ids); !added {
		return false
	}
	vr.appendRow(ids)
	return true
}

// appendRow adds a row the caller knows vr does not hold, without
// probing (ids are copied, not retained).
func (vr *VarRelation) appendRow(ids []uint32) {
	vr.data = append(vr.data, ids...)
	vr.n++
}

// Size returns the number of rows.
func (vr *VarRelation) Size() int { return vr.n }

// Rows returns the rows in insertion order (do not modify). String
// tuples materialize lazily from the interned storage.
func (vr *VarRelation) Rows() []Tuple {
	for len(vr.rows) < vr.n {
		vr.rows = append(vr.rows, vr.in.tuple(vr.irow(len(vr.rows))))
	}
	return vr.rows
}

// Project returns a new VarRelation keeping only the given variables (in
// the given order), deduplicating rows (set semantics). Variables absent
// from the schema are rejected.
func (vr *VarRelation) Project(keep []cq.Var) (*VarRelation, error) {
	cols := make([]int, len(keep))
	for i, v := range keep {
		c := vr.Schema.IndexOf(v)
		if c < 0 {
			return nil, fmt.Errorf("engine: projection variable %s not in schema %v", v, vr.Schema)
		}
		cols[i] = c
	}
	out := newVarRelationIn(append(Schema(nil), keep...), vr.in)
	distinct := keepsAll(cols, len(vr.Schema))
	buf := make([]uint32, len(cols))
	for i := 0; i < vr.n; i++ {
		row := vr.irow(i)
		for j, c := range cols {
			buf[j] = row[c]
		}
		if distinct {
			out.appendRow(buf)
		} else {
			out.insertIDs(buf)
		}
	}
	return out, nil
}

// keepsAll reports whether cols names every one of width input columns
// (a negative entry names none): a projection that keeps every column
// of a set, in any order or repeated, is a set by construction.
func keepsAll(cols []int, width int) bool {
	for c := 0; c < width; c++ {
		if !slices.Contains(cols, c) {
			return false
		}
	}
	return true
}
