package corecover

import (
	"fmt"
	"sort"
	"testing"

	"viewplan/internal/bucket"
	"viewplan/internal/containment"
	"viewplan/internal/cq"
	"viewplan/internal/minicon"
	"viewplan/internal/obs"
	"viewplan/internal/views"
	"viewplan/internal/workload"
)

// diffCorpus generates the ~200-instance seeded chain/star corpus the
// differential harness runs on: body sizes 4–6, 6–12 views, with and
// without a nondistinguished variable. Instances without rewritings stay
// in the corpus — agreement on "no rewriting exists" is as much a
// differential verdict as agreement on the rewritings.
func diffCorpus(t *testing.T) []*workload.Instance {
	t.Helper()
	var out []*workload.Instance
	for _, shape := range []workload.Shape{workload.Star, workload.Chain} {
		for i := 0; i < 100; i++ {
			inst, err := workload.Generate(workload.Config{
				Shape:            shape,
				QuerySubgoals:    4 + i%3,
				NumViews:         6 + i%7,
				Nondistinguished: i % 2,
				Seed:             int64(1000*int(shape) + i),
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, inst)
		}
	}
	return out
}

// requireResultsEqual compares every semantically meaningful field of two
// Results (PlanningStats is timing and may differ). Shared by the
// oracle differential harness and the plan-cache differential harness,
// so the label names the two runs being compared.
func requireResultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	fail := func(field string, x, y any) {
		t.Fatalf("%s: runs disagree on %s:\n  a: %v\n  b: %v", label, field, x, y)
	}
	if a.Query.String() != b.Query.String() {
		fail("Query", a.Query, b.Query)
	}
	if a.MinimalQuery.String() != b.MinimalQuery.String() {
		fail("MinimalQuery", a.MinimalQuery, b.MinimalQuery)
	}
	if len(a.ViewClasses) != len(b.ViewClasses) {
		fail("len(ViewClasses)", len(a.ViewClasses), len(b.ViewClasses))
	}
	for i := range a.ViewClasses {
		if len(a.ViewClasses[i]) != len(b.ViewClasses[i]) {
			fail("ViewClasses", a.ViewClasses[i], b.ViewClasses[i])
		}
		for j := range a.ViewClasses[i] {
			if a.ViewClasses[i][j].Name() != b.ViewClasses[i][j].Name() {
				fail("ViewClasses", a.ViewClasses[i][j], b.ViewClasses[i][j])
			}
		}
	}
	if len(a.Tuples) != len(b.Tuples) {
		fail("len(Tuples)", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if a.Tuples[i].View.Name() != b.Tuples[i].View.Name() || !a.Tuples[i].Atom.Equal(b.Tuples[i].Atom) {
			fail("Tuples", a.Tuples[i], b.Tuples[i])
		}
	}
	if len(a.Classes) != len(b.Classes) {
		fail("len(Classes)", len(a.Classes), len(b.Classes))
	}
	for i := range a.Classes {
		if a.Classes[i].Core.Covered != b.Classes[i].Core.Covered ||
			len(a.Classes[i].Members) != len(b.Classes[i].Members) {
			fail("Classes", a.Classes[i], b.Classes[i])
		}
		for j := range a.Classes[i].Members {
			if !a.Classes[i].Members[j].Atom.Equal(b.Classes[i].Members[j].Atom) {
				fail("Classes members", a.Classes[i].Members[j], b.Classes[i].Members[j])
			}
		}
	}
	if len(a.Rewritings) != len(b.Rewritings) {
		fail("len(Rewritings)", a.Rewritings, b.Rewritings)
	}
	for i := range a.Rewritings {
		if a.Rewritings[i].String() != b.Rewritings[i].String() {
			fail("Rewritings", a.Rewritings[i], b.Rewritings[i])
		}
	}
	if len(a.Covers) != len(b.Covers) {
		fail("len(Covers)", a.Covers, b.Covers)
	}
	for i := range a.Covers {
		if len(a.Covers[i]) != len(b.Covers[i]) {
			fail("Covers", a.Covers[i], b.Covers[i])
		}
		for j := range a.Covers[i] {
			if a.Covers[i][j] != b.Covers[i][j] {
				fail("Covers", a.Covers[i], b.Covers[i])
			}
		}
	}
}

// oracleTuples is T(Q, V) evaluated literally — the definition the
// production views.ComputeTuples is held to: no candidate prefilter, no
// batch frame, one CanonicalDB.EvaluateFunc call per view with answers
// deduplicated per view. (internal/views/tuples_test.go holds the same
// reference for the function in isolation.)
func oracleTuples(minQ *cq.Query, work []*views.View) []views.Tuple {
	db := containment.FreezeQuery(minQ)
	var out []views.Tuple
	for _, v := range work {
		start := len(out)
		db.EvaluateFunc(v.Def, func(frozen []cq.Term) bool {
			args := make([]cq.Term, len(frozen))
			for i, t := range frozen {
				args[i] = db.ThawTerm(t)
			}
			atom := cq.Atom{Pred: v.Def.Head.Pred, Args: args}
			for _, prev := range out[start:] {
				if prev.Atom.Equal(atom) {
					return true
				}
			}
			out = append(out, views.Tuple{View: v, Atom: atom})
			return true
		})
	}
	return out
}

// requireMatchesOracle holds one Result to the oracle: its view tuples
// are exactly the unfiltered per-view tuples of the class
// representatives, and every emitted rewriting passes the full
// expansion-equivalence test against the original query.
func requireMatchesOracle(t *testing.T, label string, inst *workload.Instance, r *Result) {
	t.Helper()
	reps := make([]*views.View, len(r.ViewClasses))
	for i, cl := range r.ViewClasses {
		reps[i] = cl[0]
	}
	want := oracleTuples(r.MinimalQuery, reps)
	if len(r.Tuples) != len(want) {
		t.Fatalf("%s: %d view tuples, oracle has %d", label, len(r.Tuples), len(want))
	}
	for i := range want {
		if r.Tuples[i].View != want[i].View || !r.Tuples[i].Atom.Equal(want[i].Atom) {
			t.Fatalf("%s: tuple %d = %v, oracle has %v", label, i, r.Tuples[i], want[i])
		}
	}
	if len(r.Rewritings) != len(r.Covers) {
		t.Fatalf("%s: %d rewritings for %d covers", label, len(r.Rewritings), len(r.Covers))
	}
	for _, p := range r.Rewritings {
		if !inst.Views.IsEquivalentRewriting(p, inst.Query) {
			t.Fatalf("%s: emitted rewriting is not equivalent to the query:\n  %s", label, p)
		}
	}
}

// requireCappedPrefix asserts a capped run is the uncapped run cut at
// the cap: same tuples and classes, the first max rewritings and covers.
func requireCappedPrefix(t *testing.T, label string, full, capped *Result, max int) {
	t.Helper()
	want := *full
	if len(want.Rewritings) > max {
		want.Rewritings, want.Covers = want.Rewritings[:max], want.Covers[:max]
	}
	requireResultsEqual(t, label, &want, capped)
}

// diffOptionGrid is the option axis of the oracle harness: the paper's
// configuration and the grouping ablation.
var diffOptionGrid = []Options{
	{},
	{DisableViewGrouping: true, DisableTupleGrouping: true},
}

// TestDifferentialMatchesOracle holds the cold pipeline to the oracle
// over the whole corpus. For CoreCover and CoreCover*, grouping on and
// off: view tuples equal the unfiltered per-view reference, every
// emitted rewriting is re-checked by expansion equivalence, and a capped
// run is a prefix of the uncapped one.
func TestDifferentialMatchesOracle(t *testing.T) {
	for n, inst := range diffCorpus(t) {
		for _, opts := range diffOptionGrid {
			for _, alg := range algorithms {
				label := fmt.Sprintf("%s #%d grouping=%v %s", alg.name, n, !opts.DisableViewGrouping, inst.Query)
				full, err := alg.run(inst.Query, inst.Views, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesOracle(t, label, inst, full)
				for _, max := range []int{1, 3} {
					o := opts
					o.MaxRewritings = max
					capped, err := alg.run(inst.Query, inst.Views, o)
					if err != nil {
						t.Fatal(err)
					}
					requireCappedPrefix(t, fmt.Sprintf("%s max=%d", label, max), full, capped, max)
				}
			}
		}
	}
}

// TestDifferentialCoversExhaustive holds the pipeline's cover search to
// a brute-force oracle over the corpus. Every subset of the
// nonempty-core classes is enumerated; the irredundant covers among
// them are exactly what CoreCover* may emit, so each must either be
// emitted or have a representative combination that fails expansion
// equivalence, and CoreCover must emit exactly the minimum-size ones
// CoreCover* does.
func TestDifferentialCoversExhaustive(t *testing.T) {
	checked := 0
	for n, inst := range diffCorpus(t) {
		label := fmt.Sprintf("#%d %s", n, inst.Query)
		star, err := CoreCoverStar(inst.Query, inst.Views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var usable []int
		for ci, c := range star.Classes {
			if !c.Core.IsEmpty() {
				usable = append(usable, ci)
			}
		}
		if len(usable) > 16 {
			continue // keep the 2^n enumeration small
		}
		checked++
		universe := Universe(len(star.MinimalQuery.Body))
		emitted := make(map[string]bool, len(star.Covers))
		for _, c := range star.Covers {
			emitted[fmt.Sprint(c)] = true
		}
		oracle := 0
		for mask := 1; mask < 1<<len(usable); mask++ {
			var cover []int
			var union SubgoalSet
			for b, ci := range usable {
				if mask&(1<<b) != 0 {
					cover = append(cover, ci)
					union = union.Union(star.Classes[ci].Core.Covered)
				}
			}
			if !union.Covers(universe) {
				continue
			}
			irredundant := true
			for _, ci := range cover {
				var others SubgoalSet
				for _, cj := range cover {
					if cj != ci {
						others = others.Union(star.Classes[cj].Core.Covered)
					}
				}
				if star.Classes[ci].Core.Covered.Minus(others).IsEmpty() {
					irredundant = false
				}
			}
			if !irredundant {
				continue
			}
			oracle++
			if emitted[fmt.Sprint(cover)] {
				continue
			}
			reps := make([]views.Tuple, len(cover))
			for i, ci := range cover {
				reps[i] = star.Classes[ci].Core.Tuple
			}
			if p := views.TuplesAsQuery(star.MinimalQuery, reps); inst.Views.IsEquivalentRewriting(p, inst.Query) {
				t.Fatalf("%s: CoreCover* missed the irredundant cover %v:\n  %s", label, cover, p)
			}
		}
		if len(star.Covers) > oracle {
			t.Fatalf("%s: CoreCover* emitted %d covers, only %d irredundant covers exist", label, len(star.Covers), oracle)
		}

		// GMRs are the minimum-size members of the CoreCover* space.
		gmr, err := CoreCover(inst.Query, inst.Views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		min := 1 << 30
		for _, c := range star.Covers {
			if len(c) < min {
				min = len(c)
			}
		}
		var want, got []string
		for _, c := range star.Covers {
			if len(c) == min {
				want = append(want, fmt.Sprint(c))
			}
		}
		for _, c := range gmr.Covers {
			got = append(got, fmt.Sprint(c))
		}
		sort.Strings(want)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: CoreCover covers %v, minimum-size CoreCover* covers %v", label, got, want)
		}
	}
	if checked < 150 {
		t.Fatalf("brute-force oracle covered only %d corpus instances", checked)
	}
}

// TestDifferentialCatalogMatchesCold runs the oracle check
// through a compiled Catalog, the path the service plans on: the
// candidate prefilter tests the catalog's precompiled predicate ids
// instead of predicate names and the Result shares the catalog's class
// table. The catalog-backed Result must match the oracle and equal the
// cold one byte for byte, capped and uncapped, grouping on and off.
// Both runs probe the same representatives, so they must also report
// the same hom_searches and batched_probes: a prefilter that admits a
// view the name test rejects changes no Result, only those counts.
func TestDifferentialCatalogMatchesCold(t *testing.T) {
	for n, inst := range diffCorpus(t) {
		cat, err := CompileViews(inst.Views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range diffOptionGrid {
			for _, max := range []int{0, 1} {
				for _, alg := range algorithms {
					label := fmt.Sprintf("%s #%d grouping=%v max=%d %s", alg.name, n, !opts.DisableViewGrouping, max, inst.Query)
					o := opts
					o.MaxRewritings = max
					trCold, trCat := obs.New(), obs.New()
					o.Tracer = trCold
					cold, err := alg.run(inst.Query, inst.Views, o)
					if err != nil {
						t.Fatal(err)
					}
					o.Catalog = cat
					o.Tracer = trCat
					got, err := alg.run(inst.Query, nil, o)
					if err != nil {
						t.Fatal(err)
					}
					requireMatchesOracle(t, label+" catalog", inst, got)
					requireResultsEqual(t, label+" cold vs catalog", cold, got)
					for _, ctr := range []obs.Counter{obs.CtrHomSearches, obs.CtrBatchedProbes} {
						if c, g := trCold.Counter(ctr), trCat.Counter(ctr); c != g {
							t.Fatalf("%s: %s cold %d, catalog %d", label, ctr, c, g)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialAgainstMiniConAndBucket keeps CoreCover honest against
// the two independent in-tree baselines on the corpus:
//
//   - Existence must agree three ways: CoreCover finds an equivalent
//     rewriting exactly when MiniCon (equivalent-only) does and exactly
//     when the bucket algorithm does.
//   - Every baseline rewriting is an equivalent rewriting, so its size
//     bounds the GMR size from above: min baseline size ≥ GMRSize. The
//     gap is real — MiniCon's MCDs must partition the subgoals, so it
//     cannot emit the overlapping-cover GMRs CoreCover finds on chains
//     (Section 4.3) — which is why equality is not asserted.
//   - Completeness, up to canonical renaming: an equivalent rewriting of
//     exactly GMR size is itself a GMR, so with grouping disabled (the
//     baselines know nothing of representatives) every GMR-sized
//     baseline rewriting must appear in CoreCover's rewriting set, keyed
//     by cq.CanonicalKey.
func TestDifferentialAgainstMiniConAndBucket(t *testing.T) {
	checked := 0
	for _, inst := range diffCorpus(t) {
		res, err := CoreCover(inst.Query, inst.Views, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mc := minicon.Rewritings(inst.Query, inst.Views, minicon.Options{EquivalentOnly: true})
		bk, err := bucket.Rewritings(inst.Query, inst.Views, bucket.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ccHas := len(res.Rewritings) > 0
		if ccHas != (len(mc) > 0) {
			t.Fatalf("existence disagreement with minicon on %s: corecover=%d minicon=%d",
				inst.Query, len(res.Rewritings), len(mc))
		}
		if ccHas != (len(bk) > 0) {
			t.Fatalf("existence disagreement with bucket on %s: corecover=%d bucket=%d",
				inst.Query, len(res.Rewritings), len(bk))
		}
		if !ccHas {
			continue
		}
		checked++
		gmr := res.GMRSize()
		if m := minBodySize(mc); m < gmr {
			t.Fatalf("minicon found a smaller equivalent rewriting than the GMR on %s: %d < %d",
				inst.Query, m, gmr)
		}
		if m := minBodySize(bk); m < gmr {
			t.Fatalf("bucket found a smaller equivalent rewriting than the GMR on %s: %d < %d",
				inst.Query, m, gmr)
		}

		ungrouped, err := CoreCover(inst.Query, inst.Views, Options{
			DisableViewGrouping:  true,
			DisableTupleGrouping: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ungrouped.GMRSize() != gmr {
			t.Fatalf("grouping changed the GMR size on %s: grouped %d, ungrouped %d",
				inst.Query, gmr, ungrouped.GMRSize())
		}
		keys := make(map[string]bool, len(ungrouped.Rewritings))
		for _, p := range ungrouped.Rewritings {
			keys[cq.CanonicalKey(p)] = true
		}
		for _, p := range append(append([]*cq.Query(nil), mc...), bk...) {
			if len(p.Body) != gmr {
				continue
			}
			if !keys[cq.CanonicalKey(p)] {
				t.Fatalf("baseline GMR missing from CoreCover's set on %s:\n  %s", inst.Query, p)
			}
		}
	}
	if checked < 40 {
		t.Fatalf("corpus too thin: only %d instances had rewritings", checked)
	}
}

func minBodySize(ps []*cq.Query) int {
	m := 1 << 30
	for _, p := range ps {
		if len(p.Body) < m {
			m = len(p.Body)
		}
	}
	return m
}
