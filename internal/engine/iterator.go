// Execution: lazy iterator composition over interned rows. This is the
// one way a query is evaluated (Database.Evaluate, hence view
// materialization) and an optimizer-chosen plan is run (StreamQuery);
// the materialized JoinStep kernel remains only as the cost simulation's
// substrate and as the tests' byte-identity oracle. The operators here
// are compiled from the same atomSpec machinery as JoinStep, so both
// classify subgoal positions, check constants and repeated variables,
// and order output columns identically. Every operator of a scan →
// probe joins → project → filter → head pipeline emits exactly the rows
// of the materialized intermediate it stands for, in that relation's
// insertion order (DESIGN §16), so the drain at the root reproduces the
// materialized answer byte-for-byte without sorting.
package engine

import (
	"fmt"
	"sync"

	"viewplan/internal/cq"
	"viewplan/internal/obs"
)

// RowIterator is the pull interface of the streaming execution path.
// Next returns an interned row valid only until the following Next or
// Close call. Iterators are single-goroutine; closing the pipeline root
// closes every operator beneath it, exactly once.
type RowIterator interface {
	// Schema names the row columns; nil for head streams, whose columns
	// are head positions rather than variables.
	Schema() Schema
	Next() ([]uint32, bool)
	Close()
}

// residentIterator reports how many rows an operator subtree currently
// holds in execution-owned state (the projection dedup sets). Resident
// sets only grow during a drain, so sampling at exhaustion captures the
// peak.
type residentIterator interface {
	residentRows() int64
}

func pipelineResident(it RowIterator) int64 {
	if r, ok := it.(residentIterator); ok {
		return r.residentRows()
	}
	return 0
}

// streamFrame is a pooled row buffer: each operator that assembles rows
// checks one out at construction and owns it exclusively until its
// Close releases it (see the poolsafe analyzer and its poolsafe_stream
// fixture — retaining a frame past the release is a lint error).
type streamFrame struct {
	buf []uint32
}

var framePool = sync.Pool{New: func() any { return new(streamFrame) }}

func newFrame(width int) *streamFrame {
	f := framePool.Get().(*streamFrame)
	if cap(f.buf) < width {
		f.buf = make([]uint32, width)
	}
	f.buf = f.buf[:width]
	return f
}

// Streaming counterparts of joinRowsHist: per-operator emission counts
// and per-drain peak resident rows, observed into the process registry
// with the same zero-allocation pattern.
var (
	streamedRowsHist = obs.Process.Histogram(obs.HistStreamedRows)
	peakResidentHist = obs.Process.Histogram(obs.HistPeakResident)
)

// unitIterator is the join identity: one empty row, the streaming
// counterpart of UnitVarRelation.
type unitIterator struct {
	done bool
}

var emptyRow = []uint32{}

func (u *unitIterator) Schema() Schema { return nil }
func (u *unitIterator) Close()         {}
func (u *unitIterator) Next() ([]uint32, bool) {
	if u.done {
		return nil, false
	}
	u.done = true
	return emptyRow, true
}

// scanIterator streams one subgoal's stored rows projected onto the
// subgoal's schema (distinct variables in first-occurrence order),
// applying the compiled constant and repeated-variable checks on the
// fly. Dropped positions are determined by kept ones, so the stream is
// duplicate-free and in relation insertion order — identical to
// JoinStep against the unit relation.
type scanIterator struct {
	spec  atomSpec
	ri    int
	frame *streamFrame
}

// streamScan returns a lazy scan of the subgoal's relation. Unknown
// predicates behave exactly as in JoinStep: an empty stream (with the
// counter tick), or an error in strict mode.
func (db *Database) streamScan(atom cq.Atom) (RowIterator, error) {
	spec, err := db.compileAtom(nil, atom)
	if err != nil {
		return nil, err
	}
	it := &scanIterator{spec: spec, frame: newFrame(len(spec.out))}
	if spec.impossible {
		it.ri = spec.rel.n
	}
	return it, nil
}

func (it *scanIterator) Schema() Schema { return it.spec.out }

func (it *scanIterator) Next() ([]uint32, bool) {
	spec := &it.spec
	for it.ri < spec.rel.n {
		right := spec.rel.irow(it.ri)
		it.ri++
		if !spec.matches(right) {
			continue
		}
		buf := it.frame.buf
		for j, np := range spec.newPos {
			buf[j] = right[np]
		}
		return buf, true
	}
	return nil, false
}

func (it *scanIterator) Close() {
	if it.frame == nil {
		return
	}
	framePool.Put(it.frame)
	it.frame = nil
}

// probeJoinIterator is the streaming build/probe join: the stored
// relation is the (indexed) build side, each input row probes it
// lazily. Emission order is input order × bucket order — the same
// nested order the materialized kernel inserts in.
type probeJoinIterator struct {
	db    *Database
	in    RowIterator
	spec  atomSpec
	index *rowIndex
	w     int // input row width
	frame *streamFrame

	probeKey []uint32
	bucket   []int32
	bi       int

	emitted int64
	probed  int64
	closed  bool
}

// streamJoin returns a lazy join of the input stream with one subgoal's
// relation, compiled exactly like a JoinStep. On error the input is
// closed. The input must share the database's interner (pipelines built
// by this package always do).
func (db *Database) streamJoin(in RowIterator, atom cq.Atom) (RowIterator, error) {
	spec, err := db.compileAtom(in.Schema(), atom)
	if err != nil {
		in.Close()
		return nil, err
	}
	return &probeJoinIterator{
		db:       db,
		in:       in,
		spec:     spec,
		w:        len(in.Schema()),
		frame:    newFrame(len(spec.out)),
		probeKey: make([]uint32, len(spec.curCols)),
	}, nil
}

func (it *probeJoinIterator) Schema() Schema { return it.spec.out }

func (it *probeJoinIterator) Next() ([]uint32, bool) {
	spec := &it.spec
	if spec.impossible || spec.rel.n == 0 {
		return nil, false
	}
	for {
		for it.bi < len(it.bucket) {
			ri := it.bucket[it.bi]
			it.bi++
			right := spec.rel.irow(int(ri))
			if !spec.matches(right) {
				continue
			}
			buf := it.frame.buf
			for j, np := range spec.newPos {
				buf[it.w+j] = right[np]
			}
			it.emitted++
			return buf, true
		}
		left, ok := it.in.Next()
		if !ok {
			return nil, false
		}
		if it.index == nil {
			it.index = spec.rel.indexFor(spec.joinCols)
		}
		for k, c := range spec.curCols {
			it.probeKey[k] = left[c]
		}
		it.bucket = it.index.bucket(it.probeKey)
		it.bi = 0
		it.probed += int64(len(it.bucket))
		copy(it.frame.buf, left[:it.w])
	}
}

func (it *probeJoinIterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	streamedRowsHist.Observe(it.emitted)
	tr := it.db.Tracer()
	tr.Add(obs.CtrStreamJoins, 1)
	tr.Add(obs.CtrStreamedRows, it.emitted)
	// The streaming join is the executor's join step, so it also feeds
	// the counters JoinStep ticks for the cost simulation.
	tr.Add(obs.CtrJoinSteps, 1)
	tr.Add(obs.CtrJoinRows, it.emitted)
	tr.Add(obs.CtrJoinProbeRows, it.probed)
	framePool.Put(it.frame)
	it.frame = nil
	it.in.Close()
}

func (it *probeJoinIterator) residentRows() int64 { return pipelineResident(it.in) }

// filterIterator applies built-in comparisons to a stream (Section 8
// extension: queries and views with built-in predicates evaluate by
// filtering the relational join). A subset of a set is a set.
type filterIterator struct {
	in     RowIterator
	intern *Interner
	checks []streamCheck
}

type streamCheck struct {
	op         cq.CompOp
	lcol, rcol int // column index, or -1 for a constant
	lval, rval Value
}

// streamFilter returns a lazy comparison filter over the input stream.
// On error the input is closed.
func (db *Database) streamFilter(in RowIterator, comps []cq.Comparison) (RowIterator, error) {
	if len(comps) == 0 {
		return in, nil
	}
	schema := in.Schema()
	resolve := func(t cq.Term) (int, Value, error) {
		switch t := t.(type) {
		case cq.Const:
			return -1, t, nil
		case cq.Var:
			c := schema.IndexOf(t)
			if c < 0 {
				return 0, "", fmt.Errorf("engine: compared variable %s not in schema %v", t, schema)
			}
			return c, "", nil
		}
		return 0, "", fmt.Errorf("engine: bad comparison term %v", t)
	}
	it := &filterIterator{in: in, intern: db.in, checks: make([]streamCheck, len(comps))}
	for i, c := range comps {
		lc, lv, err := resolve(c.Left)
		if err != nil {
			in.Close()
			return nil, err
		}
		rc, rv, err := resolve(c.Right)
		if err != nil {
			in.Close()
			return nil, err
		}
		it.checks[i] = streamCheck{op: c.Op, lcol: lc, rcol: rc, lval: lv, rval: rv}
	}
	return it, nil
}

func (it *filterIterator) Schema() Schema      { return it.in.Schema() }
func (it *filterIterator) Close()              { it.in.Close() }
func (it *filterIterator) residentRows() int64 { return pipelineResident(it.in) }

func (it *filterIterator) passes(row []uint32) bool {
	for _, ch := range it.checks {
		lv, rv := ch.lval, ch.rval
		if ch.lcol >= 0 {
			lv = it.intern.Value(row[ch.lcol])
		}
		if ch.rcol >= 0 {
			rv = it.intern.Value(row[ch.rcol])
		}
		if !cq.CompareValues(ch.op, lv, rv) {
			return false
		}
	}
	return true
}

func (it *filterIterator) Next() ([]uint32, bool) {
	for {
		row, ok := it.in.Next()
		if !ok {
			return nil, false
		}
		if it.passes(row) {
			return row, true
		}
	}
}

// projectIterator keeps only the given variables, in the given order,
// with set semantics: the streaming counterpart of VarRelation.Project.
// A row is forwarded the first time its projection appears — which is
// the materialized insertion order — so the operators above never redo
// work the materialized path would not have done.
type projectIterator struct {
	in    RowIterator
	out   Schema
	cols  []int
	frame *streamFrame
	// seen is the dedup set over the emitted rows, which it keeps in
	// emitted; nil when every input column survives, since a permutation
	// of distinct rows is distinct.
	seen    *rowSet
	emitted []uint32
}

// streamProject returns a lazy duplicate-free projection of the input
// stream onto the given variables. On error the input is closed.
func streamProject(in RowIterator, keep []cq.Var) (RowIterator, error) {
	schema := in.Schema()
	cols := make([]int, len(keep))
	for i, v := range keep {
		c := schema.IndexOf(v)
		if c < 0 {
			in.Close()
			return nil, fmt.Errorf("engine: projection variable %s not in schema %v", v, schema)
		}
		cols[i] = c
	}
	it := &projectIterator{
		in:    in,
		out:   append(Schema(nil), keep...),
		cols:  cols,
		frame: newFrame(len(keep)),
	}
	if !keepsAll(cols, len(schema)) {
		it.seen = newRowSet(len(keep))
	}
	return it, nil
}

func (it *projectIterator) Schema() Schema { return it.out }
func (it *projectIterator) residentRows() int64 {
	if it.seen == nil {
		return pipelineResident(it.in)
	}
	return int64(it.seen.n) + pipelineResident(it.in)
}

func (it *projectIterator) Next() ([]uint32, bool) {
	for {
		row, ok := it.in.Next()
		if !ok {
			return nil, false
		}
		buf := it.frame.buf
		for j, c := range it.cols {
			buf[j] = row[c]
		}
		if it.seen == nil {
			return buf, true
		}
		if _, added := it.seen.add(it.emitted, buf); added {
			it.emitted = append(it.emitted, buf...)
			return buf, true
		}
	}
}

func (it *projectIterator) Close() {
	if it.frame == nil {
		return
	}
	framePool.Put(it.frame)
	it.frame = nil
	it.in.Close()
}

// headIterator assembles answer rows from a variable stream: head
// variables copy through, head constants are interned once.
type headIterator struct {
	in       RowIterator
	cols     []int // input column, or -1 for a constant position
	constIDs []uint32
	frame    *streamFrame
	// distinct is set when the head keeps every input column: distinct
	// input rows then give distinct answer rows (drainStream).
	distinct bool
}

// streamHead returns the head projection of a variable stream. On error
// the input is closed.
func (db *Database) streamHead(in RowIterator, head cq.Atom) (RowIterator, error) {
	schema := in.Schema()
	it := &headIterator{
		in:       in,
		cols:     make([]int, len(head.Args)),
		constIDs: make([]uint32, len(head.Args)),
	}
	for i, arg := range head.Args {
		switch a := arg.(type) {
		case cq.Var:
			c := schema.IndexOf(a)
			if c < 0 {
				in.Close()
				return nil, fmt.Errorf("engine: head variable %s missing from join schema", a)
			}
			it.cols[i] = c
		case cq.Const:
			it.cols[i] = -1
			it.constIDs[i] = db.in.ID(a)
		}
	}
	it.frame = newFrame(len(head.Args))
	it.distinct = keepsAll(it.cols, len(schema))
	return it, nil
}

func (it *headIterator) Schema() Schema      { return nil }
func (it *headIterator) residentRows() int64 { return pipelineResident(it.in) }

func (it *headIterator) Next() ([]uint32, bool) {
	row, ok := it.in.Next()
	if !ok {
		return nil, false
	}
	buf := it.frame.buf
	for i, c := range it.cols {
		if c < 0 {
			buf[i] = it.constIDs[i]
		} else {
			buf[i] = row[c]
		}
	}
	return buf, true
}

func (it *headIterator) Close() {
	if it.frame == nil {
		return
	}
	framePool.Put(it.frame)
	it.frame = nil
	it.in.Close()
}

// StreamStats reports what one drain did.
type StreamStats struct {
	// Rows is the number of distinct rows in the drained result.
	Rows int
	// RawRows is the number of rows pulled from the pipeline root
	// before set-semantics dedup.
	RawRows int64
	// PeakResidentRows is the peak number of execution-owned resident
	// rows: the projection dedup sets plus the accumulating result.
	PeakResidentRows int64
}

// drainStream materializes a stream into a named relation with set
// semantics, inserting rows as they arrive. The stream below a head is
// a set — scans and joins emit distinct rows, projections dedup, a
// filter keeps a subset — so when the head keeps every column of it
// the rows are appended without a dedup table (VarRelation.set);
// otherwise each row is probed. The pipeline is closed before
// returning.
func (db *Database) drainStream(name string, arity int, it RowIterator) (*Relation, StreamStats) {
	out := newRelationIn(name, arity, db.in)
	h, isHead := it.(*headIterator)
	distinct := isHead && h.distinct
	var stats StreamStats
	for {
		row, ok := it.Next()
		if !ok {
			break
		}
		stats.RawRows++
		if distinct {
			out.appendRow(row)
		} else {
			out.insertIDs(row)
		}
	}
	stats.Rows = out.Size()
	stats.PeakResidentRows = pipelineResident(it) + int64(out.Size())
	peakResidentHist.Observe(stats.PeakResidentRows)
	it.Close()
	return out, stats
}

// StreamQuery is the executor: it joins q's body in the given order
// (see buildJoinPipeline for retains), applies q's comparisons and head,
// and drains the pipeline into the relation named after q. Evaluate
// drives it with the greedy order, cost.ExecutePlan with plan orders and
// the M3 per-step retains.
func (db *Database) StreamQuery(q *cq.Query, order []int, retains [][]cq.Var) (*Relation, StreamStats, error) {
	it, err := db.buildJoinPipeline(q.Body, order, retains)
	if err != nil {
		return nil, StreamStats{}, err
	}
	if it, err = db.streamFilter(it, q.Comparisons); err != nil {
		return nil, StreamStats{}, err
	}
	if it, err = db.streamHead(it, q.Head); err != nil {
		return nil, StreamStats{}, err
	}
	rel, stats := db.drainStream(q.Name(), q.Head.Arity(), it)
	return rel, stats, nil
}

// buildJoinPipeline composes a scan and probe joins for the body atoms
// in the given order. retains[k], when non-nil, projects after step k
// (the M3 supplementary-relation drops). When construction fails midway
// the operators already built are closed.
func (db *Database) buildJoinPipeline(body []cq.Atom, order []int, retains [][]cq.Var) (RowIterator, error) {
	if len(order) == 0 {
		return &unitIterator{}, nil
	}
	var it RowIterator
	var err error
	for k, idx := range order {
		if k == 0 {
			it, err = db.streamScan(body[idx])
		} else {
			it, err = db.streamJoin(it, body[idx])
		}
		if err != nil {
			return nil, err
		}
		if retains != nil && retains[k] != nil {
			it, err = streamProject(it, retains[k])
			if err != nil {
				return nil, err
			}
		}
	}
	return it, nil
}
