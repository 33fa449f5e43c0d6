// Resident view catalog: the query-independent half of the CoreCover
// pipeline compiled once and shared across planning requests. The paper
// assumes the view set is long-lived while queries arrive one at a time;
// a Catalog is that assumption made executable — view validation, the
// Section 5.2 equivalence classes, the representative subset and the
// candidate prefilter's predicate ids are computed once and reused by
// every run that attaches the catalog through Options.Catalog.
//
// Every Catalog comes from one linear pass, newCatalog, over its view
// set: CompileViews runs it on a private copy of the caller's set, and
// the copy-on-write mutations AddViews and RemoveView run it on the
// successor set. The expensive per-view definition keys (Minimize +
// canonical labeling) are not the catalog's: each views.View memoizes
// its own, and a successor set shares its parent's View objects, so a
// mutation re-buckets memoized keys and keys only the views it adds.
//
// The view tuples T(Q,V) and the compiled hom-search targets are NOT
// precomputed here: both depend on the query's canonical database, so
// they are inherently per-request (the containment kernel's homRunPool
// already recycles the search frames across requests). What the catalog
// owns is exactly the work that is query-independent, which keeps the
// catalog-path Result byte-identical to a cold run: the same grouping
// call (views.Set.EquivalenceClasses) runs over the same keys, so class
// order, representative choice, tuple enumeration order, and rewriting
// order are untouched.
package corecover

import (
	"fmt"
	"sync/atomic"

	"viewplan/internal/cq"
	"viewplan/internal/views"
)

// catalogGen mints process-unique catalog generations. Generation 0 is
// never issued, so a zero generation in a cache key can never match a
// live catalog. Each Catalog — including every copy-on-write descendant
// — gets a fresh generation, which is what invalidates plan-cache
// entries after AddViews/RemoveView (the IRCache generation model,
// lifted to the plan layer).
var catalogGen atomic.Uint64

// Catalog is an immutable compilation of a view set, safe to share
// freely across goroutines: every field is written once by newCatalog
// and only read afterwards. Mutations return a new Catalog; the old one
// remains valid and serves in-flight requests, so a server swaps
// catalogs with one atomic pointer store.
type Catalog struct {
	gen     uint64
	vs      *views.Set
	classes [][]*views.View
	// work is the representative subset the tuple computation runs over
	// (class representatives in class order), sharing vs's View objects.
	work *views.Set
	// predIDs numbers the base predicates of the representatives'
	// bodies in first-occurrence order over work.
	predIDs map[string]uint32
	// workPreds[i] lists the distinct predicate ids of work.Views[i]'s
	// body. The view-tuple candidate prefilter tests these against the
	// minimized query's predicates, so deciding that a view cannot
	// contribute tuples costs a few array loads instead of a kernel
	// setup.
	workPreds [][]uint32
}

// CompileViews compiles a view set into a resident Catalog. Each view
// definition must be a pure conjunctive query (comparison-bearing views
// are rejected here, once, instead of on every planning run). opts is
// accepted for signature symmetry with the planning entry points; no
// field of it affects the compile.
func CompileViews(vs *views.Set, opts Options) (*Catalog, error) {
	for _, v := range vs.Views {
		if err := checkPureView(v.Def); err != nil {
			return nil, err
		}
	}
	// Private set: the catalog must stay immutable even if the caller
	// later mutates its own Set. The View objects are shared (they are
	// immutable after NewSet).
	own, err := vs.Subset(vs.Names())
	if err != nil {
		return nil, err
	}
	return newCatalog(own), nil
}

// checkPureView rejects a view definition CoreCover cannot plan with.
func checkPureView(def *cq.Query) error {
	if def.HasComparisons() {
		return fmt.Errorf("corecover: view %s uses built-in predicates; CoreCover handles pure conjunctive views (see package ucq for the Section 8 extension)", def.Name())
	}
	return nil
}

// newCatalog assembles a Catalog from a set, minting a fresh generation.
// It is the only constructor: grouping re-buckets the views' memoized
// keys, and the prefilter ids are numbered in one walk over the
// representatives' bodies, so the cost is linear in the set's size.
func newCatalog(vs *views.Set) *Catalog {
	classes, work := vs.EquivalenceClasses()
	c := &Catalog{
		gen:       catalogGen.Add(1),
		vs:        vs,
		classes:   classes,
		work:      work,
		predIDs:   make(map[string]uint32),
		workPreds: make([][]uint32, work.Len()),
	}
	for i, v := range work.Views {
		var ids []uint32
	atoms:
		for _, a := range v.Def.Body {
			id, ok := c.predIDs[a.Pred]
			if !ok {
				id = uint32(len(c.predIDs))
				c.predIDs[a.Pred] = id
			}
			for _, have := range ids {
				if have == id {
					continue atoms
				}
			}
			ids = append(ids, id)
		}
		c.workPreds[i] = ids
	}
	return c
}

// Generation returns the catalog's process-unique generation. Plan-cache
// keys embed it, so entries planned against an older catalog can never
// serve after a view mutation.
func (c *Catalog) Generation() uint64 { return c.gen }

// Views returns the compiled view set. Callers must treat it as
// read-only; it is shared by every request planning against the catalog.
func (c *Catalog) Views() *views.Set { return c.vs }

// Len returns the number of views in the catalog.
func (c *Catalog) Len() int { return c.vs.Len() }

// Names returns the view names in catalog order.
func (c *Catalog) Names() []string { return c.vs.Names() }

// NumClasses returns the number of view equivalence classes.
func (c *Catalog) NumClasses() int { return len(c.classes) }

// AddViews returns a new Catalog extending this one with the given view
// definitions (validated; duplicate names rejected). Copy-on-write: the
// existing View objects are shared, and with them their memoized
// definition keys — only the new views are minimized and keyed — and the
// result carries a fresh generation. The receiver is unchanged and stays
// valid.
func (c *Catalog) AddViews(defs ...*cq.Query) (*Catalog, error) {
	for _, d := range defs {
		if err := checkPureView(d); err != nil {
			return nil, err
		}
	}
	vs, err := c.vs.Append(defs...)
	if err != nil {
		return nil, err
	}
	return newCatalog(vs), nil
}

// RemoveView returns a new Catalog without the named view, sharing the
// remaining View objects (and so their memoized definition keys), under
// a fresh generation. Removing an unknown name is an error. Classes are
// ordered by first occurrence, so the result is exactly a fresh
// CompileViews over the surviving definitions.
func (c *Catalog) RemoveView(name string) (*Catalog, error) {
	vs, err := c.vs.Remove(name)
	if err != nil {
		return nil, err
	}
	return newCatalog(vs), nil
}
