// Concurrent plan cache: completed Results memoized under the query's
// exact canonical key, the catalog generation, and the option
// fingerprint. The soundness argument (DESIGN.md §13): ExactCanonicalKey
// equality means the queries are identical up to variable renaming and
// body reordering, the generation pins the view set, and the fingerprint
// pins every Options field that changes what a run produces — so the
// cached Result, rebased onto the arrival's variable names through the
// canonical labeling's witnessing bijection, is exactly a Result for the
// arriving query. Queries the key cannot speak for (oversized bodies,
// built-in comparisons, where cq.ExactCanonicalKey declines) and
// queries inside the planner's reserved "_"-variable namespace bypass
// the cache entirely.
package corecover

import (
	"container/list"
	"sort"
	"strings"
	"sync"

	"viewplan/internal/cq"
	"viewplan/internal/obs"
	"viewplan/internal/views"
)

// optionsFingerprint is the part of Options that changes what a run
// produces. Tracer is deliberately absent: tracing never alters the
// Result, so traced and untraced runs share entries.
type optionsFingerprint struct {
	disableViewGrouping  bool
	disableTupleGrouping bool
	skipVerification     bool
	maxRewritings        int
}

func fingerprintOf(o Options) optionsFingerprint {
	return optionsFingerprint{
		disableViewGrouping:  o.DisableViewGrouping,
		disableTupleGrouping: o.DisableTupleGrouping,
		skipVerification:     o.SkipVerification,
		maxRewritings:        o.MaxRewritings,
	}
}

// planKey identifies one cached plan: which algorithm (CoreCover or
// CoreCover*), against which catalog generation, under which option
// fingerprint, for which query up to renaming and body reordering.
type planKey struct {
	star  bool
	gen   uint64
	fp    optionsFingerprint
	canon string
}

// cacheEntry is one memoized plan. res is a private deep clone — the
// cache never hands out or retains caller-visible pointers — and vars is
// the canonical labeling of the query res was computed for: vars[i] is
// the variable the canonical form numbers Vi, which is what lets a hit
// for an alpha-renamed arrival be rebased (see rebase). tpl is the
// positional rename template instantiate uses to serve hits without any
// per-hit substitution-map lookups.
type cacheEntry struct {
	vars []cq.Var
	res  *Result
	tpl  *entryTemplate
}

// planCacheStripes is the lock-stripe count of a large PlanCache. Keys
// spread across stripes by a hash of their canonical form, so
// concurrent planners contend on one stripe's mutex instead of a single
// global lock.
const planCacheStripes = 8

// planCacheStripeMin is the smallest capacity that stripes. Below it
// the cache keeps one stripe: per-stripe capacities under ~8 entries
// make hash imbalance dominate, and a single stripe preserves the exact
// global LRU order the small-cache tests (and tuning intuition) rely
// on. At or above it, eviction is LRU within each stripe — the
// capacity bound still holds exactly (stripe capacities sum to the
// cache capacity), only the victim choice is per-stripe.
const planCacheStripeMin = 64

// PlanCache is a size-bounded concurrent memo of planning Results,
// shared by any number of goroutines planning against the same resident
// Catalog. Eviction is LRU (global below planCacheStripeMin, per-stripe
// above — see planCacheStripeMin). The zero capacity stores nothing
// (every lookup misses), which keeps capacity a pure tuning knob.
//
// Counters are ticked on the per-run Tracer only, never on obs.Global:
// a registry fed by per-request snapshots then reconciles exactly with
// the sum of those snapshots even under concurrent mutation (the
// registry invariant the service soak tests assert, for both the
// single-stripe and the striped configuration).
type PlanCache struct {
	cap     int
	stripes []planStripe
}

// planStripe is one independently locked segment: its own map, its own
// LRU list, its own share of the capacity.
type planStripe struct {
	mu  sync.Mutex
	cap int
	m   map[planKey]*list.Element
	lru list.List // front = most recently used; values are *lruNode
}

type lruNode struct {
	key planKey
	ent *cacheEntry
}

// NewPlanCache returns a plan cache bounded to capacity entries.
// capacity <= 0 yields a cache that stores nothing.
func NewPlanCache(capacity int) *PlanCache {
	n := 1
	if capacity >= planCacheStripeMin {
		n = planCacheStripes
	}
	c := &PlanCache{cap: capacity, stripes: make([]planStripe, n)}
	base, extra := capacity/n, capacity%n
	for i := range c.stripes {
		s := &c.stripes[i]
		s.cap = base
		if i < extra {
			s.cap++
		}
		s.m = make(map[planKey]*list.Element)
		s.lru.Init()
	}
	return c
}

// Capacity returns the cache's entry bound.
func (c *PlanCache) Capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// Len returns the current number of cached plans.
func (c *PlanCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// stripeFor picks the key's stripe: FNV-1a over the canonical form,
// mixed with the catalog generation. Alloc-free — the hit path's
// allocation budget is gated.
func (c *PlanCache) stripeFor(key planKey) *planStripe {
	if len(c.stripes) == 1 {
		return &c.stripes[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key.canon); i++ {
		h ^= uint64(key.canon[i])
		h *= prime64
	}
	h ^= key.gen
	h *= prime64
	return &c.stripes[h%uint64(len(c.stripes))]
}

// lookup returns the entry for key, marking it most recently used
// within its stripe.
func (c *PlanCache) lookup(key planKey) *cacheEntry {
	if c == nil {
		return nil
	}
	s := c.stripeFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*lruNode).ent
}

// insert stores an entry, evicting the stripe's least recently used
// plan when the stripe is over its share of the capacity. Two
// goroutines racing to insert the same key (both missed, both planned)
// keep the first entry: planning is deterministic, so both hold
// equivalent results and replacing would only churn the LRU list.
// Evictions tick CtrPlanCacheEvict on tr (nil-safe).
func (c *PlanCache) insert(key planKey, ent *cacheEntry, tr *obs.Tracer) {
	if c == nil || c.cap <= 0 {
		return
	}
	s := c.stripeFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; ok {
		return
	}
	s.m[key] = s.lru.PushFront(&lruNode{key: key, ent: ent})
	for len(s.m) > s.cap {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.lru.Remove(back)
		delete(s.m, back.Value.(*lruNode).key)
		tr.Add(obs.CtrPlanCacheEvict, 1)
	}
}

// usesReservedVars reports whether any variable of q lives in the
// planner's reserved "_" namespace. Cached artifacts contain fresh
// internal variables ("_E…" expansion existentials, "_X…" from view
// expansion); rebasing a cached Result onto a query that itself uses
// such names could capture them, so those queries bypass the cache.
func usesReservedVars(q *cq.Query) bool {
	reserved := func(t cq.Term) bool {
		v, ok := t.(cq.Var)
		return ok && strings.HasPrefix(string(v), "_")
	}
	for _, t := range q.Head.Args {
		if reserved(t) {
			return true
		}
	}
	for _, a := range q.Body {
		for _, t := range a.Args {
			if reserved(t) {
				return true
			}
		}
	}
	return false
}

// rebase deep-clones a Result under the variable bijection sending the
// source query's canonical labeling onto the target's (srcVars[i] ->
// dstVars[i]). For a repeat of the byte-identical query the bijection is
// the identity and the clone reproduces the cold Result byte for byte —
// the cache-differential harness's contract. View objects and the
// read-only ViewClasses table are shared (immutable by construction);
// everything renameable is cloned, so a cached entry never aliases
// caller-mutable state.
func rebase(src *Result, srcVars, dstVars []cq.Var) *Result {
	sigma := make(cq.Subst, len(srcVars))
	for i, v := range srcVars {
		sigma[v] = dstVars[i]
	}
	out := &Result{
		Query:        sigma.Query(src.Query),
		MinimalQuery: sigma.Query(src.MinimalQuery),
		ViewClasses:  src.ViewClasses, // shared read-only, see Result.ViewClasses
	}
	if src.Tuples != nil {
		out.Tuples = make([]views.Tuple, len(src.Tuples))
		for i, t := range src.Tuples {
			out.Tuples[i] = views.Tuple{View: t.View, Atom: sigma.Atom(t.Atom)}
		}
	}
	if src.Classes != nil {
		out.Classes = make([]TupleClass, len(src.Classes))
		for i, tc := range src.Classes {
			out.Classes[i] = rebaseClass(tc, sigma)
		}
	}
	if src.Rewritings != nil {
		out.Rewritings = make([]*cq.Query, len(src.Rewritings))
		for i, rw := range src.Rewritings {
			out.Rewritings[i] = sigma.Query(rw)
		}
	}
	if src.Covers != nil {
		out.Covers = make([][]int, len(src.Covers))
		for i, cov := range src.Covers {
			out.Covers[i] = append([]int(nil), cov...)
		}
	}
	return out
}

// rebaseClass renames one tuple class. Core mappings send covered-query
// variables to expansion terms: domains are query variables (renamed),
// images are either query variables (renamed) or fresh "_E" existentials
// (outside sigma's domain, preserved — the bypass rule guarantees the
// arriving query cannot capture them).
func rebaseClass(tc TupleClass, sigma cq.Subst) TupleClass {
	out := TupleClass{Core: rebaseCore(tc.Core, sigma)}
	out.Members = make([]views.Tuple, len(tc.Members))
	for i, m := range tc.Members {
		out.Members[i] = views.Tuple{View: m.View, Atom: sigma.Atom(m.Atom)}
	}
	return out
}

func rebaseCore(core TupleCore, sigma cq.Subst) TupleCore {
	out := TupleCore{
		Tuple:   views.Tuple{View: core.Tuple.View, Atom: sigma.Atom(core.Tuple.Atom)},
		Covered: core.Covered,
	}
	if core.Mapping != nil {
		out.Mapping = make(cq.Subst, len(core.Mapping))
		for v, img := range core.Mapping { //viewplan:nondet-ok each binding is renamed independently into its own key's slot; iteration order cannot reach the result
			nv := v
			if img2, ok := sigma[v]; ok {
				nv = img2.(cq.Var) // sigma is a variable bijection
			}
			out.Mapping[nv] = sigma.Term(img)
		}
	}
	if core.Expansion != nil {
		out.Expansion = sigma.Atoms(core.Expansion)
	}
	return out
}

// entryTemplate is the positional form of an entry's renameable term
// slots, precomputed at insert so hits rename by array index instead of
// substitution-map lookups (the map probes dominated the hit-path CPU
// profile). refs holds one entry per term slot of the stored Result, in
// the exact order instantiate re-walks it: ref >= 0 names dstVars[ref],
// ref < 0 names lits[-1-ref] (a constant, or a variable outside the
// canonical labeling — the "_E" existentials the bypass rule protects).
// mapPairs carries each class's core Mapping in sorted-key order, since
// a map cannot be walked in lockstep deterministically.
type entryTemplate struct {
	refs     []int32
	lits     []cq.Term
	mapPairs [][]tplPair
}

type tplPair struct{ key, val int32 }

func varsEqual(a, b []cq.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildTemplate walks res (which instantiate will re-walk in the same
// order) recording for every atom argument whether it is positional in
// vars or a literal. res must be the entry's own stored clone.
func buildTemplate(res *Result, vars []cq.Var) *entryTemplate {
	idx := make(map[cq.Var]int32, len(vars))
	for i, v := range vars {
		idx[v] = int32(i)
	}
	t := &entryTemplate{}
	refOf := func(term cq.Term) int32 {
		if v, ok := term.(cq.Var); ok {
			if i, ok := idx[v]; ok {
				return i
			}
		}
		t.lits = append(t.lits, term)
		return int32(-len(t.lits))
	}
	atom := func(a cq.Atom) {
		for _, term := range a.Args {
			t.refs = append(t.refs, refOf(term))
		}
	}
	atoms := func(as []cq.Atom) {
		for _, a := range as {
			atom(a)
		}
	}
	query := func(q *cq.Query) {
		atom(q.Head)
		atoms(q.Body)
	}
	query(res.MinimalQuery)
	for _, tu := range res.Tuples {
		atom(tu.Atom)
	}
	t.mapPairs = make([][]tplPair, len(res.Classes))
	for i, tc := range res.Classes {
		atom(tc.Core.Tuple.Atom)
		atoms(tc.Core.Expansion)
		for _, m := range tc.Members {
			atom(m.Atom)
		}
		keys := make([]cq.Var, 0, len(tc.Core.Mapping))
		for v := range tc.Core.Mapping {
			keys = append(keys, v)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		pairs := make([]tplPair, len(keys))
		for j, v := range keys {
			pairs[j] = tplPair{key: refOf(v), val: refOf(tc.Core.Mapping[v])}
		}
		t.mapPairs[i] = pairs
	}
	for _, rw := range res.Rewritings {
		query(rw)
	}
	return t
}

// instantiate serves one hit: a private Result equal, field for field,
// to what rebase(e.res, e.vars, dstVars) returns — the equivalence the
// cache-differential harness pins — but built from the positional
// template with a single term slab shared by every atom (three-index
// subslicing keeps the atoms' Args from aliasing each other). Query is
// left nil: the hit path installs the arrival verbatim.
//
// When the arrival's canonical labeling spells the very same variables
// as the stored entry — every textually identical replay, the dominant
// steady-state traffic — the renaming is the identity and instantiate
// returns a shallow copy sharing the entry's immutable substructure
// outright. Entries are never written after insert and callers receive
// Results to read, not to edit (the same contract the catalog's shared
// *View pointers already rely on), so the sharing is invisible except
// to the allocator.
func (e *cacheEntry) instantiate(dstVars []cq.Var) *Result {
	if varsEqual(e.vars, dstVars) {
		out := *e.res
		return &out
	}
	src, t := e.res, e.tpl
	// Box each destination variable into the Term interface once, not
	// once per slot that names it — the boxing, not the copying, is the
	// allocation.
	dst := make([]cq.Term, len(dstVars))
	for i, v := range dstVars {
		dst[i] = v
	}
	slab := make([]cq.Term, len(t.refs))
	pos := 0
	term := func(ref int32) cq.Term {
		if ref >= 0 {
			return dst[ref]
		}
		return t.lits[-1-ref]
	}
	atom := func(a cq.Atom) cq.Atom {
		n := len(a.Args)
		args := slab[pos : pos+n : pos+n]
		for i := range args {
			args[i] = term(t.refs[pos+i])
		}
		pos += n
		return cq.Atom{Pred: a.Pred, Args: args}
	}
	atoms := func(as []cq.Atom) []cq.Atom {
		if as == nil {
			return nil
		}
		out := make([]cq.Atom, len(as))
		for i, a := range as {
			out[i] = atom(a)
		}
		return out
	}
	query := func(q *cq.Query) *cq.Query {
		return &cq.Query{Head: atom(q.Head), Body: atoms(q.Body)}
	}
	out := &Result{MinimalQuery: query(src.MinimalQuery), ViewClasses: src.ViewClasses}
	if src.Tuples != nil {
		out.Tuples = make([]views.Tuple, len(src.Tuples))
		for i, tu := range src.Tuples {
			out.Tuples[i] = views.Tuple{View: tu.View, Atom: atom(tu.Atom)}
		}
	}
	if src.Classes != nil {
		out.Classes = make([]TupleClass, len(src.Classes))
		for i, tc := range src.Classes {
			oc := TupleClass{Core: TupleCore{
				Tuple:   views.Tuple{View: tc.Core.Tuple.View, Atom: atom(tc.Core.Tuple.Atom)},
				Covered: tc.Core.Covered,
			}}
			oc.Core.Expansion = atoms(tc.Core.Expansion)
			oc.Members = make([]views.Tuple, len(tc.Members))
			for j, m := range tc.Members {
				oc.Members[j] = views.Tuple{View: m.View, Atom: atom(m.Atom)}
			}
			if tc.Core.Mapping != nil {
				m := make(cq.Subst, len(t.mapPairs[i]))
				for _, p := range t.mapPairs[i] {
					m[term(p.key).(cq.Var)] = term(p.val)
				}
				oc.Core.Mapping = m
			}
			out.Classes[i] = oc
		}
	}
	if src.Rewritings != nil {
		out.Rewritings = make([]*cq.Query, len(src.Rewritings))
		for i, rw := range src.Rewritings {
			out.Rewritings[i] = query(rw)
		}
	}
	if src.Covers != nil {
		out.Covers = make([][]int, len(src.Covers))
		for i, cov := range src.Covers {
			out.Covers[i] = append([]int(nil), cov...)
		}
	}
	return out
}

// cloneEntry wraps a freshly planned Result for insertion: a private
// deep clone (rebase under the identity bijection), a private copy of
// the query's canonical labeling, and the hit-path rename template over
// the stored clone.
func cloneEntry(r *Result, vars []cq.Var) *cacheEntry {
	own := make([]cq.Var, len(vars))
	copy(own, vars)
	res := rebase(r, own, own)
	return &cacheEntry{vars: own, res: res, tpl: buildTemplate(res, own)}
}
