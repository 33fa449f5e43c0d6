// Resident view catalog: the query-independent half of the CoreCover
// pipeline compiled once and shared across planning requests. The paper
// assumes the view set is long-lived while queries arrive one at a time;
// a Catalog is that assumption made executable — view validation, the
// Section 5.2 equivalence classes, and the representative subset are
// computed once by CompileViews and reused by every run that attaches
// the catalog through Options.Catalog. The expensive per-view definition
// keys (Minimize + canonical labeling) are not the catalog's: each
// views.View memoizes its own, so copy-on-write mutations, which share
// View objects, regroup without re-keying unchanged views.
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
	"sort"
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
// freely across goroutines: every field is written once by CompileViews
// (or a copy-on-write mutation) and only read afterwards. Mutations
// return a new Catalog; the old one remains valid and serves in-flight
// requests, so a server swaps catalogs with one atomic pointer store.
type Catalog struct {
	gen     uint64
	vs      *views.Set
	classes [][]*views.View
	// work is the representative subset the tuple computation runs over
	// (class representatives in class order), sharing vs's View objects.
	work *views.Set
	// vocab is the catalog's symbol table: every predicate mentioned by
	// a view definition (head and body), interned once. Ids issued by
	// one catalog's vocabulary are private to it — viewplanlint's
	// internmix analyzer enforces the boundary, as it does for the
	// engine and cq interners.
	vocab *cq.Interner
	// byPred lists, per interned base-predicate id, the names of the
	// views whose definitions mention it, in set order.
	byPred map[uint32][]string
	// workPreds[i] lists the distinct interned body-predicate ids of
	// work.Views[i]. The view-tuple candidate prefilter tests these
	// against the minimized query's predicates, so deciding that a view
	// cannot contribute tuples costs a few array loads instead of a
	// kernel setup.
	workPreds [][]uint32
}

// CompileViews compiles a view set into a resident Catalog. Each view
// definition must be a pure conjunctive query (comparison-bearing views
// are rejected here, once, instead of on every planning run). opts is
// accepted for signature symmetry with the planning entry points; no
// field of it affects the compile.
func CompileViews(vs *views.Set, opts Options) (*Catalog, error) {
	for _, v := range vs.Views {
		if v.Def.HasComparisons() {
			return nil, fmt.Errorf("corecover: view %s uses built-in predicates; CoreCover handles pure conjunctive views (see package ucq for the Section 8 extension)", v.Name())
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

// newCatalog assembles a Catalog from a set, minting a fresh generation.
// Interning walks the views in set order — head first, then body atoms
// as written — so vocabulary ids, and everything keyed by them, are a
// function of the definitions alone.
func newCatalog(vs *views.Set) *Catalog {
	classes, work := vs.EquivalenceClasses()
	c := &Catalog{
		gen:     catalogGen.Add(1),
		vs:      vs,
		classes: classes,
		work:    work,
		vocab:   cq.NewInterner(),
		byPred:  make(map[uint32][]string),
	}
	for _, v := range vs.Views {
		c.vocab.PredID(v.Def.Head.Pred)
		for _, a := range v.Def.Body {
			id := c.vocab.PredID(a.Pred)
			ns := c.byPred[id]
			if len(ns) == 0 || ns[len(ns)-1] != v.Name() {
				c.byPred[id] = append(ns, v.Name())
			}
		}
	}
	c.workPreds = compileWorkPreds(work, c.vocab)
	return c
}

// compileWorkPreds builds the per-representative distinct body-pred id
// lists for the candidate prefilter. Every predicate is already interned
// (vocab covers all views, and work is a subset), so the read-only
// LookupPred resolves each one.
func compileWorkPreds(work *views.Set, vocab *cq.Interner) [][]uint32 {
	out := make([][]uint32, work.Len())
	for i, v := range work.Views {
		var ids []uint32
	atoms:
		for _, a := range v.Def.Body {
			id, ok := vocab.LookupPred(a.Pred)
			if !ok {
				panic("corecover: view predicate missing from catalog vocabulary")
			}
			for _, have := range ids {
				if have == id {
					continue atoms
				}
			}
			ids = append(ids, id)
		}
		out[i] = ids
	}
	return out
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

// LookupPred returns the catalog's interned id for a predicate name; ok
// is false when no view definition in the catalog's lineage mentions it
// (after an incremental RemoveView a predicate of removed views may
// still resolve; ViewsMentioning reports nil for it). Ids are private
// to this catalog's vocabulary — shared only along its RemoveView
// lineage — and must not be resolved against any other interner
// (internmix enforces this).
func (c *Catalog) LookupPred(name string) (uint32, bool) {
	return c.vocab.LookupPred(name)
}

// PredName resolves a predicate id issued by this catalog's LookupPred.
func (c *Catalog) PredName(id uint32) string { return c.vocab.PredName(id) }

// ViewsMentioning returns the names of the views whose definitions
// mention the base predicate, in catalog order (nil when none do).
func (c *Catalog) ViewsMentioning(pred string) []string {
	id, ok := c.vocab.LookupPred(pred)
	if !ok {
		return nil
	}
	return append([]string(nil), c.byPred[id]...)
}

// BasePreds returns the sorted base predicates mentioned by any view.
func (c *Catalog) BasePreds() []string {
	out := make([]string, 0, len(c.byPred))
	for id := range c.byPred {
		out = append(out, c.vocab.PredName(id))
	}
	sort.Strings(out)
	return out
}

// AddViews returns a new Catalog extending this one with the given view
// definitions (validated; duplicate names rejected). Copy-on-write: the
// existing View objects are shared, and with them their memoized
// definition keys — only the new views are minimized and keyed — and the
// result carries a fresh generation. The receiver is unchanged and stays
// valid.
func (c *Catalog) AddViews(defs ...*cq.Query) (*Catalog, error) {
	for _, d := range defs {
		if d.HasComparisons() {
			return nil, fmt.Errorf("corecover: view %s uses built-in predicates; CoreCover handles pure conjunctive views (see package ucq for the Section 8 extension)", d.Name())
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
// a fresh generation. Removing an unknown name is an error.
//
// The repair is incremental: only the removed view's equivalence class
// is touched — a non-representative member is filtered out of its class
// slice (everything else, including the work subset and the prefilter
// index, is shared outright), a sole member drops its class, and a
// removed representative hands the class to its next member,
// re-slotting the class at that member's first-occurrence position so
// class order matches a fresh grouping.
// The vocabulary interner is shared with the parent (it is append-only,
// so ids stay stable across the lineage and the mention lists repair by
// key); a predicate mentioned only by removed views may therefore still
// resolve through LookupPred, but its ViewsMentioning list is empty and
// it drops out of BasePreds. The result is indistinguishable from a
// fresh CompileViews over the surviving definitions everywhere planning
// looks: classes, work set, mention lists, and every planning Result.
func (c *Catalog) RemoveView(name string) (*Catalog, error) {
	vs, err := c.vs.Remove(name)
	if err != nil {
		return nil, err
	}
	removed := c.vs.ByName(name)

	ci, mi := -1, -1
	for cj, cl := range c.classes {
		for mj, v := range cl {
			if v == removed {
				ci, mi = cj, mj
				break
			}
		}
		if ci >= 0 {
			break
		}
	}

	next := &Catalog{
		gen:   catalogGen.Add(1),
		vs:    vs,
		vocab: c.vocab,
	}
	switch {
	case mi > 0:
		// Non-representative member: filter it from its class; class
		// order, representatives, work, and the prefilter index are all
		// untouched and shared.
		classes := append([][]*views.View(nil), c.classes...)
		cl := make([]*views.View, 0, len(c.classes[ci])-1)
		cl = append(cl, c.classes[ci][:mi]...)
		cl = append(cl, c.classes[ci][mi+1:]...)
		classes[ci] = cl
		next.classes = classes
		next.work = c.work
		next.workPreds = c.workPreds
	case len(c.classes[ci]) == 1:
		// Sole member: the class disappears; the others keep their
		// relative first-occurrence order.
		classes := make([][]*views.View, 0, len(c.classes)-1)
		classes = append(classes, c.classes[:ci]...)
		classes = append(classes, c.classes[ci+1:]...)
		next.classes = classes
		if err := next.rebuildWork(); err != nil {
			return nil, err
		}
	default:
		// Removed the representative of a multi-member class: the class
		// survives headed by its next member, but a fresh grouping
		// orders classes by first surviving occurrence, so the class
		// re-slots at the new head's position.
		cl := append([]*views.View(nil), c.classes[ci][1:]...)
		pos := make(map[string]int, vs.Len())
		for i, v := range vs.Views {
			pos[v.Name()] = i
		}
		classes := make([][]*views.View, 0, len(c.classes))
		classes = append(classes, c.classes[:ci]...)
		rest := c.classes[ci+1:]
		moved := pos[cl[0].Name()]
		j := 0
		for ; j < len(rest) && pos[rest[j][0].Name()] < moved; j++ {
			classes = append(classes, rest[j])
		}
		classes = append(classes, cl)
		classes = append(classes, rest[j:]...)
		next.classes = classes
		if err := next.rebuildWork(); err != nil {
			return nil, err
		}
	}

	// Drop the removed view from the mention lists of exactly its body
	// predicates, copying only the entries that change.
	var touched []uint32
atoms:
	for _, a := range removed.Def.Body {
		id, ok := c.vocab.LookupPred(a.Pred)
		if !ok {
			continue
		}
		for _, have := range touched {
			if have == id {
				continue atoms
			}
		}
		touched = append(touched, id)
	}
	if len(touched) == 0 {
		next.byPred = c.byPred
		return next, nil
	}
	byPred := make(map[uint32][]string, len(c.byPred))
	for id, ns := range c.byPred {
		byPred[id] = ns
	}
	for _, id := range touched {
		ns := byPred[id]
		filtered := make([]string, 0, len(ns))
		for _, n := range ns {
			if n != name {
				filtered = append(filtered, n)
			}
		}
		if len(filtered) == 0 {
			delete(byPred, id)
		} else {
			byPred[id] = filtered
		}
	}
	next.byPred = byPred
	return next, nil
}

// rebuildWork recomputes the representative subset and its prefilter
// index from the catalog's (already repaired) classes.
func (c *Catalog) rebuildWork() error {
	names := make([]string, len(c.classes))
	for i, cl := range c.classes {
		names[i] = cl[0].Name()
	}
	work, err := c.vs.Subset(names)
	if err != nil {
		return err
	}
	c.work = work
	c.workPreds = compileWorkPreds(work, c.vocab)
	return nil
}
