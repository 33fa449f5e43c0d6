package corecover

// Regression tests for the MinimumCovers cap/accept interaction: the cap
// counts ACCEPTED covers, so a verifier rejecting early candidates must
// never starve the cap or displace an acceptable later cover.

import (
	"fmt"
	"testing"

	"viewplan/internal/obs"
)

// capSearch builds a universe of 2 subgoals with three minimum covers of
// size 1: sets 0, 1, and 2 each cover everything, so the candidate order
// at size 1 is [[0] [1] [2]].
func capSearch() *coverSearch {
	all := SubgoalSet(0).With(0).With(1)
	return &coverSearch{universe: Universe(2), sets: []SubgoalSet{all, all, all}}
}

// rejectFirst returns a filter that drops covers whose first set index is
// in bad, keeping enumeration order — the shape of the verifier's filter.
func rejectFirst(bad ...int) func([][]int) [][]int {
	return func(covers [][]int) [][]int {
		out := covers[:0]
		for _, c := range covers {
			rejected := false
			for _, b := range bad {
				if c[0] == b {
					rejected = true
				}
			}
			if !rejected {
				out = append(out, c)
			}
		}
		return out
	}
}

func TestMinimumCoversCapCountsAcceptedCovers(t *testing.T) {
	// cap=1 with the first two candidates rejected: the cap must be paid
	// by the accepted cover [2], not consumed by the rejected [0] and [1].
	covers := capSearch().MinimumCovers(1, rejectFirst(0, 1))
	if len(covers) != 1 || len(covers[0]) != 1 || covers[0][0] != 2 {
		t.Fatalf("MinimumCovers(1, reject 0,1) = %v, want [[2]]", covers)
	}
}

func TestMinimumCoversCapTruncatesAfterFilter(t *testing.T) {
	// cap=1 with only the first candidate rejected: two covers survive the
	// filter and the cap keeps the earlier one, preserving enumeration
	// order.
	covers := capSearch().MinimumCovers(1, rejectFirst(0))
	if len(covers) != 1 || covers[0][0] != 1 {
		t.Fatalf("MinimumCovers(1, reject 0) = %v, want [[1]]", covers)
	}
}

func TestMinimumCoversRejectedLevelFallsThrough(t *testing.T) {
	// Universe {0,1}; set 2 covers it alone, sets 0 and 1 only together.
	// A filter rejecting every cover containing set 2 kills the whole
	// size-1 level, so the search must continue to size 2 and return
	// [0 1] — rejection may not end the search the way an accepted
	// minimum level does.
	cs := &coverSearch{
		universe: Universe(2),
		sets: []SubgoalSet{
			SubgoalSet(0).With(0),
			SubgoalSet(0).With(1),
			SubgoalSet(0).With(0).With(1),
		},
	}
	noSet2 := func(covers [][]int) [][]int {
		out := covers[:0]
		for _, c := range covers {
			uses2 := false
			for _, i := range c {
				if i == 2 {
					uses2 = true
				}
			}
			if !uses2 {
				out = append(out, c)
			}
		}
		return out
	}
	covers := cs.MinimumCovers(0, noSet2)
	if len(covers) != 1 || len(covers[0]) != 2 || covers[0][0] != 0 || covers[0][1] != 1 {
		t.Fatalf("MinimumCovers(0, no set 2) = %v, want [[0 1]]", covers)
	}
	// With everything rejected there is no acceptable cover at any size.
	rejectAll := func(covers [][]int) [][]int { return covers[:0] }
	if covers := cs.MinimumCovers(0, rejectAll); covers != nil {
		t.Fatalf("MinimumCovers(0, reject all) = %v, want nil", covers)
	}
}

// TestIrredundantCoversCapEndsDFS pins what a capped CoreCover* walks:
// the DFS stops at the cap instead of enumerating the space and cutting
// afterwards. The family is three disjoint components of eight
// alternatives each (8³ = 512 irredundant covers, 585 DFS nodes); with
// cap 4 the search must visit fewer nodes than the uncapped run by at
// least the product of two components, and ask the verifier about no more
// covers than it returns plus the ones the verifier turned down.
func TestIrredundantCoversCapEndsDFS(t *testing.T) {
	const comps, alts, maxCovers = 3, 8, 4
	var sets []SubgoalSet
	for e := 0; e < comps; e++ {
		for a := 0; a < alts; a++ {
			sets = append(sets, SubgoalSet(0).With(e))
		}
	}
	// The verifier turns down every cover using the first alternative of
	// the last component, so rejections interleave with acceptances.
	run := func(maxCovers int) (covers [][]int, nodes int64, asked, rejected int) {
		tr := obs.New()
		cs := &coverSearch{universe: Universe(comps), sets: sets, tracer: tr}
		covers = cs.IrredundantCovers(maxCovers, func(c []int) bool {
			asked++
			if c[comps-1] == (comps-1)*alts {
				rejected++
				return false
			}
			return true
		})
		return covers, tr.Counter(obs.CtrCoverNodes), asked, rejected
	}
	full, fullNodes, _, _ := run(0)
	if want := alts * alts * (alts - 1); len(full) != want {
		t.Fatalf("uncapped search returned %d covers, want %d", len(full), want)
	}
	capped, cappedNodes, asked, rejected := run(maxCovers)
	if len(capped) != maxCovers {
		t.Fatalf("capped search returned %d covers, want %d", len(capped), maxCovers)
	}
	for i := range capped {
		if fmt.Sprint(capped[i]) != fmt.Sprint(full[i]) {
			t.Fatalf("capped cover %d = %v, uncapped has %v", i, capped[i], full[i])
		}
	}
	if rejected == 0 {
		t.Fatal("the capped walk met no rejected cover; the fixture no longer interleaves them")
	}
	if asked > maxCovers+rejected {
		t.Fatalf("accept called %d times for cap %d with %d rejections", asked, maxCovers, rejected)
	}
	if saved := fullNodes - cappedNodes; saved < alts*alts {
		t.Fatalf("capped search visited %d nodes, uncapped %d: saved %d, want at least %d",
			cappedNodes, fullNodes, saved, alts*alts)
	}
}
