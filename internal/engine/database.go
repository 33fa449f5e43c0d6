package engine

import (
	"fmt"
	"log/slog"
	"math"
	"sort"

	"viewplan/internal/cq"
	"viewplan/internal/obs"
	"viewplan/internal/views"
)

// Database is a collection of named relations: the base relations plus any
// materialized views. All its relations share one symbol table (Interner),
// so the join kernel compares and hashes dense integer ids instead of
// strings. gen counts row inserts across the database; the IR cache uses
// it to detect staleness.
type Database struct {
	rels   map[string]*Relation
	tracer *obs.Tracer
	in     *Interner
	gen    uint64
	ir     *IRCache
	strict bool
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation), in: NewInterner()}
}

// SetTracer attaches an observability tracer: join steps count work
// into it, and when the tracer has a log sink every join emits a
// structured event with the intermediate relation's size. A nil tracer
// (the default) turns instrumentation off. The cost optimizers pick the
// tracer up from here, so one SetTracer call instruments plan costing
// end to end. Not safe to change while queries run concurrently.
func (db *Database) SetTracer(tr *obs.Tracer) { db.tracer = tr }

// Tracer returns the attached tracer (nil when tracing is off).
func (db *Database) Tracer() *obs.Tracer { return db.tracer }

// SetStrictPredicates controls how the engine treats subgoals over
// predicates the database has no relation for. By default they join as
// empty relations (with an unknown_predicates counter tick and trace
// event); in strict mode JoinStep, Evaluate and StreamQuery return an
// *UnknownPredicateError instead, so a misnamed view fails loudly
// rather than yielding zero rows.
func (db *Database) SetStrictPredicates(strict bool) { db.strict = strict }

// UnknownPredicateError reports a join over a predicate with no relation
// in the database — typically a misnamed or unmaterialized view.
type UnknownPredicateError struct {
	Pred string
}

func (e *UnknownPredicateError) Error() string {
	return fmt.Sprintf("engine: unknown predicate %q (misnamed or unmaterialized view?)", e.Pred)
}

// Relation returns the named relation, or nil.
func (db *Database) Relation(name string) *Relation { return db.rels[name] }

// Names returns the relation names in sorted order.
func (db *Database) Names() []string {
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Create adds an empty relation sharing the database's symbol table,
// replacing any existing relation of the same name.
func (db *Database) Create(name string, arity int) *Relation {
	r := newRelationIn(name, arity, db.in, &db.gen)
	db.rels[name] = r
	return r
}

// Insert adds a tuple to the named relation, creating the relation with
// the tuple's arity if it does not exist. It reports an error on arity
// conflicts.
func (db *Database) Insert(name string, t Tuple) error {
	r := db.rels[name]
	if r == nil {
		r = db.Create(name, len(t))
	}
	if len(t) != r.Arity {
		return fmt.Errorf("engine: %s has arity %d, got %d-tuple", name, r.Arity, len(t))
	}
	r.Insert(t)
	return nil
}

// AddFact inserts a ground atom as a tuple.
func (db *Database) AddFact(a cq.Atom) error {
	if !a.IsGround() {
		return fmt.Errorf("engine: fact %s is not ground", a)
	}
	t := make(Tuple, len(a.Args))
	for i, arg := range a.Args {
		t[i] = arg.(cq.Const)
	}
	return db.Insert(a.Pred, t)
}

// LoadFacts parses and inserts a sequence of ground atoms, e.g.
// "car(honda, a). loc(a, sf).".
func (db *Database) LoadFacts(src string) error {
	facts, err := cq.ParseFacts(src)
	if err != nil {
		return err
	}
	for _, f := range facts {
		if err := db.AddFact(f); err != nil {
			return err
		}
	}
	return nil
}

// TotalRows returns the total number of tuples across all relations.
func (db *Database) TotalRows() int {
	n := 0
	for _, r := range db.rels {
		n += r.Size()
	}
	return n
}

// MaterializeViews evaluates each view definition over the database and
// stores the result as a relation named after the view (the closed-world
// assumption: view relations are computed from the base relations). It
// reports an error if a view name collides with an existing relation.
func (db *Database) MaterializeViews(vs *views.Set) error {
	for _, v := range vs.Views {
		if db.Relation(v.Name()) != nil {
			return fmt.Errorf("engine: relation %q already exists; cannot materialize view", v.Name())
		}
	}
	for _, v := range vs.Views {
		rel, err := db.Evaluate(v.Def)
		if err != nil {
			return err
		}
		db.rels[v.Name()] = rel
	}
	return nil
}

// Evaluate computes the answer relation of a conjunctive query over the
// database (set semantics): the executor (StreamQuery) in the greedy
// order, so no intermediate relation is materialized. Missing body
// relations evaluate as empty (or error in strict mode); the answer's
// rows advance the database generation.
func (db *Database) Evaluate(q *cq.Query) (*Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	rel, _, err := db.StreamQuery(q, db.greedyOrder(q.Body), nil, true)
	return rel, err
}

// greedyOrder picks a join order preferring small relations and atoms
// sharing variables with what is already joined.
func (db *Database) greedyOrder(body []cq.Atom) []int {
	n := len(body)
	used := make([]bool, n)
	bound := make(cq.VarSet)
	out := make([]int, 0, n)
	for len(out) < n {
		best, bestScore := -1, 0
		for i, a := range body {
			if used[i] {
				continue
			}
			size := 0
			if r := db.Relation(a.Pred); r != nil {
				size = r.Size()
			}
			score := size * 4
			for _, t := range a.Args {
				if v, ok := t.(cq.Var); ok && bound.Has(v) {
					score -= size // joining on a bound variable prunes hard
				}
				if cq.IsConst(t) {
					score -= size / 2
				}
			}
			if best == -1 || score < bestScore {
				best, bestScore = i, score
			}
		}
		used[best] = true
		body[best].Vars(bound)
		out = append(out, best)
	}
	return out
}

// JoinSchema returns the schema JoinStep produces before any retain
// projection: cur's columns followed by the atom's new variables in
// first-occurrence order. It is exported so the cost optimizers can
// predict a join's schema when reusing a cached intermediate relation.
func JoinSchema(cur Schema, atom cq.Atom) Schema {
	out := append(Schema(nil), cur...)
	seen := make(map[cq.Var]bool)
	for _, arg := range atom.Args {
		v, ok := arg.(cq.Var)
		if !ok || seen[v] {
			continue
		}
		seen[v] = true
		if cur.IndexOf(v) < 0 {
			out = append(out, v)
		}
	}
	return out
}

// joinRowsHist records each join step's output cardinality into the
// process registry. The kernel is shared by every rewriting's cost
// simulation, so a per-request registry can't be threaded here without
// touching every optimizer; the observe is a handful of atomic adds and
// allocates nothing, keeping the benchmark allocation gates intact.
var joinRowsHist = obs.Process.Histogram(obs.HistJoinRows)

// JoinStep joins the current intermediate relation with one subgoal's
// relation: an index join on the variables shared between the intermediate
// schema and the atom, with constant and repeated-variable positions of
// the atom checked on the fly. If retain is non-nil the result is
// projected onto those variables (set semantics); otherwise every
// variable of the current schema plus the atom's new variables is kept.
// Unknown predicates join as empty relations (or error in strict mode;
// see SetStrictPredicates).
//
// The kernel runs entirely on interned rows: the build side is the
// relation's cached rowIndex on the join columns (direct-address for a
// dense one-column key, hashed otherwise), the probe side gathers each
// left row's join values into a reused key, and output rows are
// appended straight to the result. The unprojected join needs no dedup
// set: cur and the stored relation are sets, and an output row
// determines both the left row (its prefix) and the right row (join
// columns from the left, new columns from the output, the rest pinned
// by the constant and repeated-variable checks), so no two matches
// collide. The result builds no dedup table unless someone inserts
// into it (VarRelation.set); Project dedups the retain != nil case.
func (db *Database) JoinStep(cur *VarRelation, atom cq.Atom, retain []cq.Var) (*VarRelation, error) {
	tr := db.Tracer()
	sp := tr.Start(obs.PhaseEngineJoin)
	defer sp.End()
	spec, err := db.compileAtom(cur.Schema, atom)
	if err != nil {
		return nil, err
	}
	rel := spec.rel
	outSchema := spec.out
	out := newVarRelationIn(outSchema, db.in)
	probed := 0
	if !spec.impossible && rel.n > 0 && cur.n > 0 {
		w := len(cur.Schema)
		data := db.probeSide(cur)
		index := rel.indexFor(spec.joinCols)
		probeKey := make([]uint32, len(spec.curCols))
		for li := 0; li < cur.n; li++ {
			left := data[li*w : li*w+w]
			for k, c := range spec.curCols {
				probeKey[k] = left[c]
			}
			bucket := index.bucket(probeKey)
			probed += len(bucket)
			for _, ri := range bucket {
				right := rel.irow(int(ri))
				if !spec.matches(right) {
					continue
				}
				out.data = append(out.data, left...)
				for _, np := range spec.newPos {
					out.data = append(out.data, right[np])
				}
				out.n++
			}
		}
	}
	joinRowsHist.Observe(int64(out.Size()))
	if tr != nil {
		tr.Add(obs.CtrJoinSteps, 1)
		tr.Add(obs.CtrJoinRows, int64(out.Size()))
		tr.Add(obs.CtrJoinProbeRows, int64(probed))
		if tr.HasSink() {
			tr.Event("join-step",
				slog.String("subgoal", atom.String()),
				slog.Int("view_rows", rel.Size()),
				slog.Int("intermediate_rows", out.Size()),
				slog.Int("retained_vars", len(outSchema)))
		}
	}
	if retain != nil {
		return out.Project(retain)
	}
	return out, nil
}

// probeSide returns cur's rows in the database's symbol table. Left
// relations built by the kernel already speak it; standalone ones (the
// unit relation, test fixtures) are translated once per call.
func (db *Database) probeSide(cur *VarRelation) []uint32 {
	if cur.in == db.in {
		return cur.data
	}
	data := make([]uint32, len(cur.data))
	for i, id := range cur.data {
		data[i] = db.in.ID(cur.in.Value(id))
	}
	return data
}

// JoinCount returns the number of rows JoinStep(cur, atom, nil) would
// produce, without producing them: the same compiled spec, the same
// index, but matching bucket rows are counted instead of assembled (an
// unprojected join has no duplicates, so the count is the size). When
// cur and the atom share no variable the join is a cross product and the
// count is |cur| times the stored rows passing the atom's own checks,
// one scan of the relation instead of |cur| of them.
//
// Counting stops as soon as the count exceeds limit: the result is exact
// when it is at most limit, and otherwise only guaranteed to be greater
// than limit (math.MaxInt never stops early; the count saturates there).
// The join-order searches pass what is left of their cost bound, so a
// join too large to matter costs no more than the bound to rule out.
//
// A count is probe work, not a materialized join: it ticks
// join_probe_rows but neither join_steps nor join_rows.
func (db *Database) JoinCount(cur *VarRelation, atom cq.Atom, limit int) (int, error) {
	tr := db.Tracer()
	sp := tr.Start(obs.PhaseEngineJoin)
	defer sp.End()
	spec, err := db.compileAtom(cur.Schema, atom)
	if err != nil {
		return 0, err
	}
	rel := spec.rel
	if spec.impossible || rel.n == 0 || cur.n == 0 {
		return 0, nil
	}
	checked := len(spec.constChecks)+len(spec.repChecks) > 0
	count, probed := 0, 0
	if len(spec.joinCols) == 0 {
		sel := rel.n
		if checked {
			sel, probed = 0, rel.n
			for ri := 0; ri < rel.n; ri++ {
				if spec.matches(rel.irow(ri)) {
					sel++
				}
			}
		}
		count = cur.n * sel
		if sel != 0 && count/sel != cur.n {
			count = math.MaxInt
		}
	} else {
		w := len(cur.Schema)
		data := db.probeSide(cur)
		index := rel.indexFor(spec.joinCols)
		probeKey := make([]uint32, len(spec.curCols))
		for li := 0; li < cur.n && count <= limit; li++ {
			left := data[li*w : li*w+w]
			for k, c := range spec.curCols {
				probeKey[k] = left[c]
			}
			bucket := index.bucket(probeKey)
			probed += len(bucket)
			if !checked {
				count += len(bucket)
				continue
			}
			for _, ri := range bucket {
				if spec.matches(rel.irow(int(ri))) {
					count++
				}
			}
		}
	}
	tr.Add(obs.CtrJoinProbeRows, int64(probed))
	return count, nil
}
