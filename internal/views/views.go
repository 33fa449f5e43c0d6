// Package views implements materialized view definitions and the
// view-tuple machinery of Section 3.3 of the paper: expanding rewritings,
// testing the equivalent-rewriting property under the closed-world
// assumption, computing the view tuples T(Q, V) via the canonical
// database, and grouping views into equivalence classes for the concise
// representation of Section 5.2.
package views

import (
	"fmt"
	"sort"
	"sync"

	"viewplan/internal/containment"
	"viewplan/internal/cq"
)

// View is a named conjunctive view over the base relations. Its definition
// must be safe and its head predicate is the view's name.
//
// A View is immutable after NewSet or Append builds it. Every set, subset
// and catalog that holds it shares the pointer, and the view memoizes
// what is derived from its definition on first use: its DefinitionKey and
// its sorted existential variables. Views are therefore always handled by
// pointer, never copied.
type View struct {
	// Def is the view definition: a private clone made by NewSet or
	// Append. Treat it as read-only. Mutating it afterwards leaves the
	// memoized key and existential variables stale.
	Def *cq.Query

	keyOnce sync.Once
	key     string
	exOnce  sync.Once
	exVars  []cq.Var
}

// Name returns the view's head predicate.
func (v *View) Name() string { return v.Def.Name() }

// Arity returns the view head's arity.
func (v *View) Arity() int { return v.Def.Head.Arity() }

// String renders the view definition.
func (v *View) String() string { return v.Def.String() }

// existentials returns the definition's existential variables in sorted
// order, computed once per view. Sorted order pins which existential gets
// which fresh name in an expansion, keeping expansions byte-identical
// across runs. Callers must not modify the slice.
func (v *View) existentials() []cq.Var {
	v.exOnce.Do(func() { v.exVars = v.Def.ExistentialVars().Sorted() })
	return v.exVars
}

// Set is an ordered collection of views with unique names.
type Set struct {
	Views  []*View
	byName map[string]*View
}

// NewSet builds a view set from definitions, validating each and rejecting
// duplicate names. Each View holds a private clone of its definition; its
// key and existential variables are computed lazily, on first use, not
// here.
func NewSet(defs ...*cq.Query) (*Set, error) {
	s := &Set{byName: make(map[string]*View, len(defs))}
	for _, d := range defs {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("views: invalid view %s: %w", d.Name(), err)
		}
		if _, dup := s.byName[d.Name()]; dup {
			return nil, fmt.Errorf("views: duplicate view name %q", d.Name())
		}
		v := &View{Def: d.Clone()}
		s.Views = append(s.Views, v)
		s.byName[v.Name()] = v
	}
	return s, nil
}

// MustNewSet is NewSet, panicking on error. For tests and examples.
func MustNewSet(defs ...*cq.Query) *Set {
	s, err := NewSet(defs...)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseSet parses a Datalog program in which every rule is one view
// definition.
func ParseSet(src string) (*Set, error) {
	defs, err := cq.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	return NewSet(defs...)
}

// ByName returns the view with the given name, or nil.
func (s *Set) ByName(name string) *View { return s.byName[name] }

// Len returns the number of views.
func (s *Set) Len() int { return len(s.Views) }

// Names returns the view names in set order.
func (s *Set) Names() []string {
	out := make([]string, len(s.Views))
	for i, v := range s.Views {
		out[i] = v.Name()
	}
	return out
}

// Subset returns a new Set containing only the named views, in the given
// order. The returned set shares the receiver's View objects: view
// definitions are private clones made once by NewSet and treated as
// immutable everywhere after, so a subset neither re-validates nor
// re-clones them, and every memo a View carries (its DefinitionKey) is
// shared too. Tuple.View pointers consequently compare equal across a
// set and its subsets.
func (s *Set) Subset(names []string) (*Set, error) {
	sub := &Set{byName: make(map[string]*View, len(names))}
	for _, n := range names {
		v := s.ByName(n)
		if v == nil {
			return nil, fmt.Errorf("views: unknown view %q", n)
		}
		if _, dup := sub.byName[n]; dup {
			return nil, fmt.Errorf("views: duplicate view name %q", n)
		}
		sub.Views = append(sub.Views, v)
		sub.byName[n] = v
	}
	return sub, nil
}

// Append returns a new Set holding the receiver's views followed by the
// given definitions, validating each addition and rejecting duplicate
// names. Copy-on-write: the existing View objects are shared with the
// receiver (definitions are immutable after NewSet), so a resident
// catalog can add views without recompiling the unchanged ones.
func (s *Set) Append(defs ...*cq.Query) (*Set, error) {
	out := &Set{
		Views:  make([]*View, len(s.Views), len(s.Views)+len(defs)),
		byName: make(map[string]*View, len(s.Views)+len(defs)),
	}
	copy(out.Views, s.Views)
	for n, v := range s.byName {
		out.byName[n] = v
	}
	for _, d := range defs {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("views: invalid view %s: %w", d.Name(), err)
		}
		if _, dup := out.byName[d.Name()]; dup {
			return nil, fmt.Errorf("views: duplicate view name %q", d.Name())
		}
		v := &View{Def: d.Clone()}
		out.Views = append(out.Views, v)
		out.byName[v.Name()] = v
	}
	return out, nil
}

// Remove returns a new Set without the named view, preserving the order
// of the rest. Copy-on-write: the remaining View objects are shared with
// the receiver. Removing an unknown name is an error.
func (s *Set) Remove(name string) (*Set, error) {
	if s.ByName(name) == nil {
		return nil, fmt.Errorf("views: unknown view %q", name)
	}
	out := &Set{
		Views:  make([]*View, 0, len(s.Views)-1),
		byName: make(map[string]*View, len(s.Views)-1),
	}
	for _, v := range s.Views {
		if v.Name() == name {
			continue
		}
		out.Views = append(out.Views, v)
		out.byName[v.Name()] = v
	}
	return out, nil
}

// Expand computes the expansion P^exp of a rewriting P: every view subgoal
// is replaced by the view's body with distinguished variables bound to the
// subgoal's arguments and existential variables replaced by fresh
// variables (Definition 2.2). Subgoals whose predicate is not a view name
// are passed through unchanged, so partially rewritten queries expand too.
func (s *Set) Expand(p *cq.Query) (*cq.Query, error) {
	gen := cq.NewFreshGen("_X", p.Vars())
	var body []cq.Atom
	var comps []cq.Comparison
	comps = append(comps, p.Comparisons...)
	for _, sub := range p.Body {
		v := s.ByName(sub.Pred)
		if v == nil {
			body = append(body, sub.Clone())
			continue
		}
		if len(sub.Args) != v.Arity() {
			return nil, fmt.Errorf("views: subgoal %s has arity %d, view %s has arity %d",
				sub, len(sub.Args), v.Name(), v.Arity())
		}
		bind := cq.NewSubst()
		for i, formal := range v.Def.Head.Args {
			fv, ok := formal.(cq.Var)
			if !ok {
				// Constant in a view head: the subgoal argument must match.
				if formal != sub.Args[i] {
					return nil, fmt.Errorf("views: subgoal %s conflicts with constant %s in head of %s",
						sub, formal, v.Name())
				}
				continue
			}
			if !bind.Bind(fv, sub.Args[i]) {
				// Repeated head variable with conflicting arguments: the
				// subgoal is unsatisfiable against this view head. Treat as
				// an error; callers construct subgoals from view heads so
				// this indicates a malformed rewriting.
				return nil, fmt.Errorf("views: subgoal %s repeats head variable %s of %s with conflicting arguments",
					sub, fv, v.Name())
			}
		}
		for _, ev := range v.existentials() {
			bind[ev] = gen.Fresh()
		}
		body = append(body, bind.Atoms(v.Def.Body)...)
		comps = append(comps, bind.Comparisons(v.Def.Comparisons)...)
	}
	exp := &cq.Query{Head: p.Head.Clone(), Body: body, Comparisons: comps}
	return exp, nil
}

// IsEquivalentRewriting reports whether p is an equivalent rewriting of q
// using this view set (Definition 2.3): p uses only view predicates and
// p^exp ≡ q.
func (s *Set) IsEquivalentRewriting(p, q *cq.Query) bool {
	for _, sub := range p.Body {
		if s.ByName(sub.Pred) == nil {
			return false
		}
	}
	exp, err := s.Expand(p)
	if err != nil {
		return false
	}
	return containment.Equivalent(exp, q)
}

// DefinitionKey returns the equivalence key of a view definition: the
// exact canonical form of the minimized definition with the head
// predicate name erased. It is computed once per View and memoized, so
// grouping a set whose views were grouped before — in any set, subset or
// catalog sharing them — minimizes and labels nothing again. It is safe
// to call concurrently.
//
// Equal keys imply equivalent definitions. The converse holds when both
// keys are exact: cores are unique up to renaming, so equivalent views
// have isomorphic minimized definitions. When the minimized definition
// has no exact canonical key (its body exceeds the labeling's size cap,
// or it carries comparisons), the key is the view's name under a
// reserved prefix. View names are unique within a set and within a
// catalog, so such a view is grouped with no other view: it loses the
// grouping, but is never merged with a view it is not equivalent to.
func DefinitionKey(v *View) string {
	v.keyOnce.Do(func() {
		// View names differ even when definitions coincide (v1 and v5
		// in the paper), so equivalence is judged on the definition
		// with the head predicate name erased.
		key, ok := cq.ExactCanonicalKey(containment.Minimize(anonymizeHead(v.Def)))
		if !ok {
			key = unkeyedPrefix + v.Name()
		}
		v.key = key
	})
	return v.key
}

// unkeyedPrefix marks a DefinitionKey that is not a canonical form. Exact
// keys begin with the anonymized head predicate, so no exact key shares
// this prefix.
const unkeyedPrefix = "unkeyed:"

// EquivalenceClasses groups the views into classes of queries equivalent
// as view definitions (Section 5.2) and returns the classes together with
// the subset of their representatives. Each class lists its members in
// set order and its first member is the representative; classes appear
// in order of their representatives, which is also reps' order. Both
// share the receiver's View objects.
//
// Grouping is linear in the number of views: each view is bucketed by
// its memoized DefinitionKey, so no pairwise containment checks are
// needed and only views never keyed before are minimized.
func (s *Set) EquivalenceClasses() (classes [][]*View, reps *Set) {
	byKey := make(map[string]int, len(s.Views))
	of := make([]int, len(s.Views))       // class of each view
	sizes := make([]int, 0, len(s.Views)) // members per class
	for i, v := range s.Views {
		k := DefinitionKey(v)
		ci, ok := byKey[k]
		if !ok {
			ci = len(sizes)
			byKey[k] = ci
			sizes = append(sizes, 0)
		}
		of[i] = ci
		sizes[ci]++
	}
	// Carve every class out of one backing array; each class's capacity
	// ends at its last member, so an append by a caller copies.
	members := make([]*View, len(s.Views))
	classes = make([][]*View, len(sizes))
	off := 0
	for ci, n := range sizes {
		classes[ci] = members[off : off : off+n]
		off += n
	}
	for i, v := range s.Views {
		classes[of[i]] = append(classes[of[i]], v)
	}
	reps = &Set{Views: make([]*View, len(classes)), byName: make(map[string]*View, len(classes))}
	for ci, c := range classes {
		reps.Views[ci] = c[0]
		reps.byName[c[0].Name()] = c[0]
	}
	return classes, reps
}

// anonymizeHead returns a view of def whose head predicate is replaced
// by a fixed placeholder, so views with different names can be compared
// as queries. The result shares def's argument and body storage — it
// feeds the read-only Minimize/ExactCanonicalKey pipeline, where a deep
// clone per view would double the keying's allocations.
func anonymizeHead(def *cq.Query) *cq.Query {
	return &cq.Query{
		Head:        cq.Atom{Pred: "_viewdef", Args: def.Head.Args},
		Body:        def.Body,
		Comparisons: def.Comparisons,
	}
}

// BasePreds returns the sorted set of base predicates mentioned by any
// view definition.
func (s *Set) BasePreds() []string {
	set := make(map[string]struct{})
	for _, v := range s.Views {
		for p := range v.Def.Preds() {
			set[p] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
