package corecover

import (
	"fmt"
	"sort"

	"viewplan/internal/containment"
	"viewplan/internal/cq"
	"viewplan/internal/obs"
	"viewplan/internal/views"
)

// Options tunes the CoreCover algorithms. The zero value enables the
// paper's configuration (view and view-tuple equivalence-class grouping on,
// no caps). A run is one sequential pass on the calling goroutine;
// concurrency lives between requests (internal/service), never inside one.
type Options struct {
	// DisableViewGrouping skips the Section 5.2 grouping of views into
	// equivalence classes (used by the grouping ablation benchmark).
	DisableViewGrouping bool
	// DisableTupleGrouping skips grouping view tuples by equal tuple-core.
	DisableTupleGrouping bool
	// MaxRewritings caps the number of rewritings produced (0 = unlimited).
	MaxRewritings int
	// SkipVerification skips the final containment check of each produced
	// rewriting. Theorem 4.1 guarantees the check passes; it is kept on by
	// default as an internal consistency assertion. It is not cheap: about
	// a quarter of a CoreCover call on the 500-view Fig. 6a star
	// (BenchmarkAblationNoVerification vs its grouped twin: 1.27 vs 1.69
	// ms/op, 2-core x86, go1.24), and two thirds of CoreCover* on the
	// benchmark's 1 000-view rewrite-paper workload.
	SkipVerification bool
	// Tracer, when non-nil, records per-phase wall times and work
	// counters for the run, and the Result carries their snapshot in
	// PlanningStats. The nil default is a no-op: the hot path pays only
	// a pointer check.
	Tracer *obs.Tracer
	// Catalog, when non-nil, supplies the resident compiled view world:
	// the run plans against the catalog's views (the vs argument of
	// CoreCover/CoreCoverStar is ignored), reusing its precompiled
	// equivalence classes and representative subset instead of regrouping
	// per request. The Result is byte-identical to a cold run over the
	// same definitions: the catalog only holds artifacts the cold path
	// computes deterministically anyway.
	Catalog *Catalog
	// Cache, when non-nil alongside Catalog, memoizes completed Results
	// under the query's exact canonical key and the catalog generation
	// (see PlanCache). Without a Catalog the cache is ignored: a cache
	// key must pin the view set, and only a catalog generation does.
	Cache *PlanCache
}

// TupleClass groups view tuples with the same tuple-core (the concise
// representation of Section 5.2). Any member can replace the
// representative in a rewriting and the result is still a rewriting.
type TupleClass struct {
	// Core is the representative's tuple-core; all members share its
	// Covered set.
	Core TupleCore
	// Members are all tuples in the class, representative first.
	Members []views.Tuple
}

// Result is the outcome of a CoreCover or CoreCover* run.
type Result struct {
	// Query is the original query; MinimalQuery its minimized equivalent
	// (CoreCover step 1). Subgoal indexes in cores refer to MinimalQuery.
	Query        *cq.Query
	MinimalQuery *cq.Query
	// ViewClasses are the view equivalence classes used (each class's
	// first member is the representative). With grouping disabled every
	// view is its own class. Read-only: a catalog-backed Result shares
	// this table — with the catalog, whose class table is immutable,
	// with the plan cache's entry and with every hit served from it —
	// exactly as Catalog.Views() is shared. Only an ad-hoc (no catalog)
	// run owns its table.
	ViewClasses [][]*views.View
	// Tuples are all view tuples of the representative views.
	Tuples []views.Tuple
	// Classes are the view-tuple classes keyed by tuple-core; classes with
	// empty cores are included (usable as filters) but never chosen by the
	// cover search.
	Classes []TupleClass
	// Rewritings are the generated rewritings: all globally-minimal
	// rewritings for CoreCover, all minimal rewritings using view tuples
	// for CoreCover*. Each uses representative tuples only.
	Rewritings []*cq.Query
	// Covers records, for each rewriting, the indexes into Classes whose
	// representatives form its body.
	Covers [][]int
	// PlanningStats is the observability snapshot of the run — phase
	// durations and work counters — when Options.Tracer was set (the
	// public viewplan entry points always set one); nil otherwise. When
	// the caller reuses one tracer across runs, the snapshot covers
	// everything recorded so far.
	PlanningStats *obs.Snapshot
}

// GMRSize returns the number of subgoals of the globally-minimal
// rewritings (0 if none were found).
func (r *Result) GMRSize() int {
	if len(r.Rewritings) == 0 {
		return 0
	}
	return len(r.Rewritings[0].Body)
}

// FilterClasses returns the classes with empty tuple-cores: tuples that
// cover no query subgoal but can serve as filtering subgoals under cost
// model M2 (Section 5.1).
func (r *Result) FilterClasses() []TupleClass {
	var out []TupleClass
	for _, c := range r.Classes {
		if c.Core.IsEmpty() {
			out = append(out, c)
		}
	}
	return out
}

// CoreCover finds all globally-minimal rewritings (GMRs) of q using the
// views: the optimal rewritings under cost model M1. It implements
// Figure 4 of the paper:
//
//  1. minimize q;
//  2. compute the view tuples T(Q,V) over the canonical database (after
//     grouping views into equivalence classes and keeping representatives);
//  3. compute the tuple-core of each view tuple (and group tuples with
//     equal cores, keeping representatives);
//  4. cover the query subgoals with a minimum number of tuple-cores; each
//     minimum cover yields a GMR.
//
// It returns a Result whose Rewritings field holds one rewriting per
// minimum cover (empty if q has no equivalent rewriting over the views).
func CoreCover(q *cq.Query, vs *views.Set, opts Options) (*Result, error) {
	return run(q, vs, opts, false)
}

// CoreCoverStar finds all minimal rewritings of q that use view tuples:
// the Section 5 search space guaranteed to contain an optimal rewriting
// under cost model M2 (before filter subgoals, which the optimizer may add
// from Result.FilterClasses). Every irredundant cover of the query
// subgoals by tuple-cores yields one rewriting.
func CoreCoverStar(q *cq.Query, vs *views.Set, opts Options) (*Result, error) {
	return run(q, vs, opts, true)
}

// run is the shared entry point of both algorithms: resolve the view
// world (catalog or the vs argument), probe the plan cache, and fall
// through to a cold run, memoizing its Result on the way out.
func run(q *cq.Query, vs *views.Set, opts Options, star bool) (*Result, error) {
	if opts.Catalog != nil {
		vs = opts.Catalog.Views()
	}
	tr := opts.Tracer
	if opts.Cache == nil || opts.Catalog == nil {
		return runCold(q, vs, opts, star)
	}
	canon, qVars, exact := cq.CanonicalLabeling(q)
	if !exact || usesReservedVars(q) {
		tr.Add(obs.CtrPlanCacheBypass, 1)
		return runCold(q, vs, opts, star)
	}
	key := planKey{star: star, gen: opts.Catalog.Generation(), fp: fingerprintOf(opts), canon: canon}
	if ent := opts.Cache.lookup(key); ent != nil {
		// Validation is skipped on hits: the cached query passed it, and
		// validity is invariant under the renaming the key attests to.
		finish := beginRun(tr)
		tr.Add(obs.CtrPlanCacheHit, 1)
		r := ent.instantiate(qVars)
		// The arrival verbatim, not the cached spelling: the key is also
		// invariant under body reordering, so the rebased clone's body
		// order may be the cached query's. Core subgoal indexes refer to
		// MinimalQuery, which stays internally consistent.
		r.Query = q.Clone()
		finish(r)
		return r, nil
	}
	tr.Add(obs.CtrPlanCacheMiss, 1)
	r, err := runCold(q, vs, opts, star)
	if err != nil {
		return nil, err
	}
	opts.Cache.insert(key, cloneEntry(r, qVars), tr)
	return r, nil
}

// runCold executes the full pipeline, catalog-accelerated when one is
// attached but never consulting the plan cache.
func runCold(q *cq.Query, vs *views.Set, opts Options, star bool) (*Result, error) {
	finish := beginRun(opts.Tracer)
	r, cs, err := prepare(q, vs, opts)
	if err != nil {
		finish(nil)
		return nil, err
	}
	ver := r.newVerifier(vs, opts)
	var covers [][]int
	if star {
		covers = cs.IrredundantCovers(opts.MaxRewritings, ver.accept(opts.Tracer))
	} else {
		covers = cs.MinimumCovers(opts.MaxRewritings, ver.coverFilter(opts.Tracer, opts.MaxRewritings))
	}
	sp := opts.Tracer.Start(obs.PhaseAssemble)
	r.collect(covers, ver, opts.Tracer)
	sp.End()
	finish(r)
	return r, nil
}

// noopFinish is beginRun's closer for untraced runs, shared so the nil
// path allocates nothing.
var noopFinish = func(*Result) {}

// beginRun opens the run-level span and global-counter sampling window
// for a traced run and returns the closer that seals both and attaches
// the snapshot to the result. With a nil tracer everything is a no-op.
func beginRun(tr *obs.Tracer) func(*Result) {
	if tr == nil {
		return noopFinish
	}
	base := obs.Global.Values()
	root := tr.Start(obs.PhaseCoreCover)
	return func(r *Result) {
		tr.AbsorbGlobal(base)
		root.End()
		if r != nil {
			tr.Add(obs.CtrRewritings, int64(len(r.Rewritings)))
			r.PlanningStats = tr.Snapshot()
		}
	}
}

func prepare(q *cq.Query, vs *views.Set, opts Options) (*Result, *coverSearch, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	if q.HasComparisons() {
		return nil, nil, fmt.Errorf("corecover: query %s uses built-in predicates; CoreCover handles pure conjunctive queries (see package ucq for the Section 8 extension)", q.Name())
	}
	if opts.Catalog == nil {
		// A catalog's views were validated once at CompileViews; the
		// per-request scan is only for ad-hoc view sets.
		for _, v := range vs.Views {
			if err := checkPureView(v.Def); err != nil {
				return nil, nil, err
			}
		}
	}
	tr := opts.Tracer
	sp := tr.Start(obs.PhaseMinimize)
	minQ := containment.Minimize(q)
	sp.End()
	if len(minQ.Body) > MaxSubgoals {
		return nil, nil, fmt.Errorf("corecover: query has %d subgoals after minimization; the limit is %d",
			len(minQ.Body), MaxSubgoals)
	}

	var classes [][]*views.View
	work := vs
	if opts.DisableViewGrouping {
		classes = make([][]*views.View, vs.Len())
		for i, v := range vs.Views {
			classes[i] = []*views.View{v}
		}
	} else if cat := opts.Catalog; cat != nil {
		// The resident catalog already grouped its views with the same
		// EquivalenceClasses call, so class order and representative
		// choice are byte-identical to the cold computation. The class
		// table and the work subset are immutable and shared, not copied
		// (see Result.ViewClasses).
		sp = tr.Start(obs.PhaseViewGrouping)
		classes = cat.classes
		work = cat.work
		sp.End()
	} else {
		// Each view keys itself once (views.DefinitionKey), so an ad-hoc
		// set whose views were grouped before only re-buckets them here.
		sp = tr.Start(obs.PhaseViewGrouping)
		classes, work = vs.EquivalenceClasses()
		sp.End()
	}

	sp = tr.Start(obs.PhaseViewTuples)
	tuples := views.ComputeTuples(minQ, work, catalogCandidates(minQ, work, opts.Catalog))
	sp.End()
	tr.Add(obs.CtrViewTuples, int64(len(tuples)))
	cc := newCoreComputer(minQ)

	r := &Result{
		Query:        q.Clone(),
		MinimalQuery: minQ,
		ViewClasses:  classes,
		Tuples:       tuples,
	}

	sp = tr.Start(obs.PhaseTupleCores)
	var cores, empties int64
	byCore := make(map[SubgoalSet]int)
	for _, vt := range tuples {
		core, err := cc.Compute(vt)
		if err != nil {
			sp.End()
			return nil, nil, err
		}
		cores++
		if core.IsEmpty() {
			empties++
		}
		if opts.DisableTupleGrouping {
			r.Classes = append(r.Classes, TupleClass{Core: core, Members: []views.Tuple{vt}})
			continue
		}
		if ci, ok := byCore[core.Covered]; ok && !core.IsEmpty() {
			r.Classes[ci].Members = append(r.Classes[ci].Members, vt)
			continue
		}
		if !core.IsEmpty() {
			byCore[core.Covered] = len(r.Classes)
		}
		r.Classes = append(r.Classes, TupleClass{Core: core, Members: []views.Tuple{vt}})
	}
	sp.End()
	tr.Add(obs.CtrTupleCores, cores)
	tr.Add(obs.CtrEmptyCores, empties)

	cs := &coverSearch{universe: Universe(len(minQ.Body)), tracer: tr}
	cs.sets = make([]SubgoalSet, len(r.Classes))
	for i, c := range r.Classes {
		cs.sets[i] = c.Core.Covered // empty cores never help the cover
	}
	return r, cs, nil
}

// catalogCandidates returns views.ComputeTuples' candidate prefilter
// (every body predicate of the view occurs in the minimized query's body)
// evaluated over the catalog's precompiled predicate-id lists, when the
// run plans against the catalog's representative subset. Otherwise it
// returns nil and ComputeTuples runs the same test over predicate names.
// A query predicate no representative mentions has no id and so cannot
// admit a view.
func catalogCandidates(minQ *cq.Query, work *views.Set, cat *Catalog) func(int) bool {
	if cat == nil || work != cat.work {
		return nil
	}
	inQ := make([]bool, len(cat.predIDs))
	for _, a := range minQ.Body {
		if id, ok := cat.predIDs[a.Pred]; ok {
			inQ[id] = true
		}
	}
	preds := cat.workPreds
	return func(i int) bool {
		for _, id := range preds[i] {
			if !inQ[id] {
				return false
			}
		}
		return true
	}
}

// verifier checks candidate covers against the query and caches the
// rewriting built for each accepted cover.
//
// Verification is part of the algorithm's semantics, not just an
// assertion: the tuple-cores of a cover may fail to combine into a single
// containment mapping when a query variable is shared between the
// arguments of one chosen tuple and an existentially mapped position of
// another (a side condition Theorem 4.1 leaves implicit; see DESIGN.md).
// Such covers do not yield equivalent rewritings and must be rejected —
// with the cover search then moving on to other covers, possibly of
// larger size. When the representative combination fails, other members
// of the involved tuple classes are tried before the cover is rejected,
// since members share a covered set but not necessarily argument
// variables.
type verifier struct {
	r    *Result
	vs   *views.Set
	opts Options
	// ok caches each checked cover's verdict (nil = rejected). Keys are
	// packed coverID bitsets, so the common lookup hashes one uint64
	// instead of a formatted index string.
	ok map[coverID]*cq.Query
}

func (r *Result) newVerifier(vs *views.Set, opts Options) *verifier {
	return &verifier{r: r, vs: vs, opts: opts, ok: make(map[coverID]*cq.Query)}
}

// accept returns the per-cover callback handed to the irredundant-cover
// search, or nil when verification is disabled.
func (v *verifier) accept(tr *obs.Tracer) func([]int) bool {
	if v.opts.SkipVerification {
		return nil
	}
	return func(cover []int) bool {
		_, ok := v.verify(tr, cover)
		return ok
	}
}

// coverFilter returns the batch filter handed to the minimum-cover
// search, or nil when verification is disabled (the search then applies
// maxAccepted itself). The filter keeps each size level's accepted covers
// in enumeration order and stops verifying at maxAccepted accepted covers
// — rejected candidates never count against the cap.
func (v *verifier) coverFilter(tr *obs.Tracer, maxAccepted int) func([][]int) [][]int {
	if v.opts.SkipVerification {
		return nil
	}
	return func(covers [][]int) [][]int {
		out := covers[:0]
		for _, c := range covers {
			if _, ok := v.verify(tr, c); ok {
				out = append(out, c)
				if maxAccepted > 0 && len(out) >= maxAccepted {
					break
				}
			}
		}
		return out
	}
}

// memberFallbackLimit caps how many member combinations are tried per
// cover when the representative combination fails verification.
const memberFallbackLimit = 64

// verify checks one cover, building and caching its rewriting. tr is a
// parameter rather than read from v.opts: the span handle leaks to the
// tracer, and Go's escape analysis is field-insensitive, so a leaking
// pointer loaded from v would force v's cache map to the heap at every
// call site — two extra allocations per run even with tracing off.
func (v *verifier) verify(tr *obs.Tracer, cover []int) (*cq.Query, bool) {
	key := coverIDOf(cover)
	if p, done := v.ok[key]; done {
		return p, p != nil
	}
	sp := tr.Start(obs.PhaseVerify)
	p := v.check(tr, cover)
	v.ok[key] = p
	sp.End()
	return p, p != nil
}

// check decides one cover: the representative combination first, then the
// bounded member fallback. It returns the verified rewriting or nil.
func (v *verifier) check(tr *obs.Tracer, cover []int) *cq.Query {
	tr.Add(obs.CtrVerifyChecks, 1)
	try := func(tuples []views.Tuple) *cq.Query {
		p := views.TuplesAsQuery(v.r.MinimalQuery, tuples)
		if v.vs.IsEquivalentRewriting(p, v.r.MinimalQuery) {
			return p
		}
		return nil
	}
	reps := make([]views.Tuple, len(cover))
	for i, ci := range cover {
		reps[i] = v.r.Classes[ci].Core.Tuple
	}
	if p := try(reps); p != nil {
		tr.Add(obs.CtrVerifyAccepted, 1)
		return p
	}
	// Representative combination failed: try other members (bounded).
	tried := 0
	choice := append([]views.Tuple(nil), reps...)
	var rec func(i int) *cq.Query
	rec = func(i int) *cq.Query {
		if i == len(cover) {
			tried++
			return try(choice)
		}
		for _, m := range v.r.Classes[cover[i]].Members {
			if tried >= memberFallbackLimit {
				return nil
			}
			choice[i] = m
			if p := rec(i + 1); p != nil {
				return p
			}
		}
		return nil
	}
	p := rec(0)
	if p != nil {
		tr.Add(obs.CtrVerifyAccepted, 1)
	}
	return p
}

// collect turns accepted covers into the Result's rewriting list. tr is
// a parameter for the same escape reason as on verify.
func (r *Result) collect(covers [][]int, ver *verifier, tr *obs.Tracer) {
	for _, cover := range covers {
		sort.Ints(cover)
		var p *cq.Query
		if ver.opts.SkipVerification {
			tuples := make([]views.Tuple, len(cover))
			for i, ci := range cover {
				tuples[i] = r.Classes[ci].Core.Tuple
			}
			p = views.TuplesAsQuery(r.MinimalQuery, tuples)
		} else {
			var ok bool
			p, ok = ver.verify(tr, cover)
			if !ok {
				continue
			}
		}
		r.Rewritings = append(r.Rewritings, p)
		r.Covers = append(r.Covers, cover)
	}
}

// HasRewriting reports whether q has any equivalent rewriting over vs.
// It is a convenience wrapper over CoreCover limited to one rewriting.
func HasRewriting(q *cq.Query, vs *views.Set) (bool, error) {
	r, err := CoreCover(q, vs, Options{MaxRewritings: 1})
	if err != nil {
		return false, err
	}
	return len(r.Rewritings) > 0, nil
}
