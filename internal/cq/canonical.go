package cq

import (
	"sort"
	"strings"
)

// CanonicalKey returns a string that is identical for two queries exactly
// when they are the same up to (a) renaming of variables and (b) reordering
// of body subgoals. The paper treats such rewritings as identical
// ("we assume two rewritings are the same if the only difference between
// them is variable renamings"), so the key is used to deduplicate
// rewritings and to pre-bucket views before the more expensive
// containment-based equivalence grouping.
//
// The key is computed by a small branch-and-bound canonical labeling: body
// atoms are emitted one at a time, variables are numbered in order of first
// emission, and at each step every not-yet-emitted atom is tried, keeping
// only orderings that remain lexicographically minimal. Conjunctive query
// bodies in this domain are small (≤ ~16 atoms), so the search is cheap in
// practice; a safety cap falls back to a sorted-shape approximation for
// adversarially large bodies (the fallback is still sound for equality of
// identical queries, merely coarser — it may merge fewer queries).
func CanonicalKey(q *Query) string {
	if len(q.Body) > canonicalExactLimit {
		return approximateKey(q)
	}
	c := &canonicalizer{q: q, used: make([]bool, len(q.Body))}
	// Head variables are numbered first, in head-argument order; the head
	// is part of every candidate prefix so this is canonical.
	c.buf = append(c.buf, q.Head.Pred...)
	c.buf = append(c.buf, '(')
	for i, t := range q.Head.Args {
		if i > 0 {
			c.buf = append(c.buf, ',')
		}
		c.label(t)
	}
	c.buf = append(c.buf, ')', '|')
	c.emit(0)
	return string(c.best)
}

const canonicalExactLimit = 16

// CanonicalLabeling returns ExactCanonicalKey(q) together with the winning
// labeling's variable order: vars[i] is the variable of q that the canonical
// form numbers Vi. Two queries with equal exact keys are the same up to
// variable renaming, and the witnessing bijection maps one labeling's vars[i]
// to the other's vars[i] — this is what lets a plan cache rebase a Result
// computed for one spelling of a query onto an alpha-renamed arrival.
// ok is false under the same conditions as ExactCanonicalKey (oversized
// body or built-in comparisons); the labeling is then not computed.
//
// Recording the labeling is gated behind an internal flag so CanonicalKey —
// which runs once per view on the grouping hot path — keeps its allocation
// profile: only CanonicalLabeling pays for materializing bestVars.
func CanonicalLabeling(q *Query) (key string, vars []Var, ok bool) {
	if len(q.Body) > canonicalExactLimit || len(q.Comparisons) > 0 {
		return "", nil, false
	}
	c := &canonicalizer{q: q, used: make([]bool, len(q.Body)), wantVars: true}
	c.buf = append(c.buf, q.Head.Pred...)
	c.buf = append(c.buf, '(')
	for i, t := range q.Head.Args {
		if i > 0 {
			c.buf = append(c.buf, ',')
		}
		c.label(t)
	}
	c.buf = append(c.buf, ')', '|')
	c.emit(0)
	return string(c.best), c.bestVars, true
}

// ExactCanonicalKey returns CanonicalKey(q) together with whether the key
// is exact: identical keys imply the queries are the same up to variable
// renaming and body reordering. Exactness fails when the body exceeds the
// canonical-labeling cap (the approximate fallback may merge
// non-isomorphic queries) or when the query carries built-in comparisons
// (which the key does not encode). Callers that memoize semantic
// properties by key — the containment hom-cache — must only cache when
// ok is true.
func ExactCanonicalKey(q *Query) (key string, ok bool) {
	if len(q.Body) > canonicalExactLimit || len(q.Comparisons) > 0 {
		return "", false
	}
	return CanonicalKey(q), true
}

// canonicalizer runs the branch-and-bound labeling over one shared byte
// buffer: candidate prefixes are appended in place and truncated on
// backtrack, variable numbering is the index into a vars slice truncated
// the same way, and only the winning labeling is materialized as a
// string. The recursion explores the same orderings and produces the
// same key as the textbook string-concatenation formulation, without its
// per-branch builder and concatenation garbage (canonical keys are
// computed once per view in the grouping phase, so they sit on the
// planner hot path).
type canonicalizer struct {
	q        *Query
	used     []bool
	vars     []Var // vars[id] is the variable numbered id
	buf      []byte
	best     []byte
	haveBest bool
	wantVars bool  // record the winning labeling's variable order
	bestVars []Var // vars of the best labeling, when wantVars
}

// label appends the canonical spelling of a term under the current
// variable numbering, assigning the next number to unseen variables.
func (c *canonicalizer) label(t Term) {
	switch t := t.(type) {
	case Const:
		c.buf = append(c.buf, "c:"...)
		c.buf = append(c.buf, string(t)...)
	case Var:
		id := -1
		for i, v := range c.vars {
			if v == t {
				id = i
				break
			}
		}
		if id < 0 {
			id = len(c.vars)
			c.vars = append(c.vars, t)
		}
		c.buf = append(c.buf, 'V')
		c.buf = appendInt(c.buf, id)
	default:
		c.buf = append(c.buf, '?')
	}
}

func (c *canonicalizer) emit(emitted int) {
	if c.haveBest {
		k := min(len(c.buf), len(c.best))
		if string(c.buf[:k]) > string(c.best[:k]) {
			return // every completion of this prefix is lexicographically worse
		}
	}
	if emitted == len(c.q.Body) {
		if !c.haveBest || string(c.buf) < string(c.best) {
			c.best = append(c.best[:0], c.buf...)
			c.haveBest = true
			if c.wantVars {
				c.bestVars = append(c.bestVars[:0], c.vars...)
			}
		}
		return
	}
	// Try each unused atom next; truncating buf and vars on the way out
	// restores both the emitted text and the variable numbering.
	for i := range c.q.Body {
		if c.used[i] {
			continue
		}
		c.used[i] = true
		mark := len(c.buf)
		savedVars := len(c.vars)
		a := c.q.Body[i]
		c.buf = append(c.buf, a.Pred...)
		c.buf = append(c.buf, '(')
		for j, t := range a.Args {
			if j > 0 {
				c.buf = append(c.buf, ',')
			}
			c.label(t)
		}
		c.buf = append(c.buf, ')', '|')
		c.emit(emitted + 1)
		c.buf = c.buf[:mark]
		c.vars = c.vars[:savedVars]
		c.used[i] = false
	}
}

// approximateKey is a cheaper, coarser key: head rendered with
// first-occurrence numbering plus the multiset of body atom shapes. Queries
// with equal exact canonical keys always have equal approximate keys.
func approximateKey(q *Query) string {
	shapes := make([]string, len(q.Body))
	for i, a := range q.Body {
		shapes[i] = a.Shape()
	}
	sort.Strings(shapes)
	var b strings.Builder
	b.WriteString(q.Head.Shape())
	b.WriteString("||")
	b.WriteString(strings.Join(shapes, "|"))
	return b.String()
}
