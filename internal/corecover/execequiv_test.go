package corecover

import (
	"testing"

	"viewplan/internal/cq"
	"viewplan/internal/engine"
)

// TestExecutionEquivalence is the end-to-end property behind Theorem 3.1:
// every rewriting CoreCover emits, evaluated over the materialized views,
// returns exactly the relation the original query returns over the base
// data. Each corpus instance gets its own randomly filled database; the
// base relations cover both the query's and the views' body predicates
// (a view may scan a relation the query never mentions).
func TestExecutionEquivalence(t *testing.T) {
	evaluated := 0
	for n, inst := range diffCorpus(t) {
		res, err := CoreCover(inst.Query, inst.Views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rewritings) == 0 {
			continue
		}

		db := engine.NewDatabase()
		// A small domain forces join collisions so the answer relations
		// are rarely empty and the comparison has teeth.
		gen := engine.NewDataGen(int64(7000+n), 4)
		gen.FillForQuery(db, inst.Query, 12)
		for _, v := range inst.Views.Views {
			gen.FillForQuery(db, v.Def, 12)
		}
		want, err := db.Evaluate(inst.Query)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.MaterializeViews(inst.Views); err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Rewritings {
			got, err := db.Evaluate(p)
			if err != nil {
				t.Fatalf("evaluating rewriting %s of %s: %v", p, inst.Query, err)
			}
			requireSameRelation(t, inst.Query, p, want, got)
		}
		evaluated++
	}
	if evaluated < 40 {
		t.Fatalf("corpus too thin: only %d instances were evaluated", evaluated)
	}
}

func requireSameRelation(t *testing.T, q, p *cq.Query, want, got *engine.Relation) {
	t.Helper()
	a, b := want.SortedRows(), got.SortedRows()
	if len(a) != len(b) {
		t.Fatalf("rewriting %s of %s: %d rows, want %d", p, q, len(b), len(a))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("rewriting %s of %s: row %d arity %d, want %d", p, q, i, len(b[i]), len(a[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("rewriting %s of %s: row %d is %v, want %v", p, q, i, b[i], a[i])
			}
		}
	}
}
