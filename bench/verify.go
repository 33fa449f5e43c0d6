package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"

	"viewplan"
)

// checkAnswer reports an error unless got holds exactly the rows of
// want. want comes from Database.Evaluate over the base relations, which
// never sees a view, a rewriting or a plan.
func checkAnswer(got, want *viewplan.Relation) error {
	if got == nil {
		return fmt.Errorf("no answer relation")
	}
	g, w := got.SortedRows(), want.SortedRows()
	if len(g) != len(w) {
		return fmt.Errorf("answer has %d rows, base evaluation %d", len(g), len(w))
	}
	for i := range g {
		if g[i].Key() != w[i].Key() {
			return fmt.Errorf("answer row %d is %v, base evaluation has %v", i, g[i], w[i])
		}
	}
	return nil
}

// checkRewritings reports an error unless every rewriting is an
// equivalent rewriting of q over vs (Definition 2.3: expand, then test
// containment both ways), and there is at least one.
func checkRewritings(rewritings []*viewplan.Query, q *viewplan.Query, vs *viewplan.ViewSet) error {
	if len(rewritings) == 0 {
		return fmt.Errorf("no rewriting for %s", q)
	}
	for _, p := range rewritings {
		if !viewplan.IsEquivalentRewriting(p, q, vs) {
			return fmt.Errorf("%s is not an equivalent rewriting of %s", p, q)
		}
	}
	return nil
}

// digest hashes a round's inputs or outputs line by line. A nil digest
// (a run, which only the seed test asks for its op list) hashes nothing.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) line(s string) {
	if d == nil {
		return
	}
	d.h.Write([]byte(s))
	d.h.Write([]byte{'\n'})
}

// set hashes the strings in sorted order, so the order the program
// returned them in does not matter.
func (d *digest) set(items []string) {
	sorted := append([]string(nil), items...)
	sort.Strings(sorted)
	d.line(fmt.Sprint(len(sorted)))
	for _, s := range sorted {
		d.line(s)
	}
}

func (d *digest) answer(rel *viewplan.Relation) {
	rows := rel.SortedRows()
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	d.set(keys)
}

func (d *digest) queries(qs []*viewplan.Query) {
	strs := make([]string, len(qs))
	for i, q := range qs {
		strs[i] = q.String()
	}
	d.set(strs)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
