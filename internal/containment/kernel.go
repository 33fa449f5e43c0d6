package containment

import (
	"sync"

	"viewplan/internal/cq"
	"viewplan/internal/obs"
)

// HomTarget is an atom list compiled for repeated homomorphism searches:
// every predicate and term is interned into a planner-side cq.Interner,
// atoms are stored as flat id arrays, and per-predicate candidate lists
// are precomputed as ID-keyed slices. Compiling once and searching many
// times is the shape of both minimization (many source bodies against
// the same candidate body) and canonical-database evaluation (every view
// body against the same frozen facts), which is where the planner spends
// its time.
//
// A compiled target is immutable after NewHomTarget returns: searches
// use only the interner's read-only Lookup methods, so one HomTarget may
// serve concurrent searches.
type HomTarget struct {
	in *cq.Interner

	// Atom i has predicate atomPred[i] and argument ids
	// targs[atomOff[i]:atomOff[i+1]]. Storage is flat so recompiling a
	// pooled target allocates nothing once capacities have grown.
	atomPred []uint32
	targs    []uint32
	atomOff  []int32

	// Predicate p's candidate atoms, in target order, are
	// predCands[predOff[p]:predOff[p+1]].
	predCands []int32
	predOff   []int32
	predFill  []int32 // compile-time scratch
}

// NewHomTarget interns target and builds its per-predicate index.
func NewHomTarget(target []cq.Atom) *HomTarget {
	t := &HomTarget{in: cq.NewInterner()}
	t.compile(target)
	return t
}

func (t *HomTarget) compile(target []cq.Atom) {
	t.in.Reset()
	t.atomPred = t.atomPred[:0]
	t.targs = t.targs[:0]
	t.atomOff = append(t.atomOff[:0], 0)
	for _, a := range target {
		t.atomPred = append(t.atomPred, t.in.PredID(a.Pred))
		for _, arg := range a.Args {
			t.targs = append(t.targs, t.in.ID(arg))
		}
		t.atomOff = append(t.atomOff, int32(len(t.targs)))
	}
	np := t.in.NumPreds()
	t.predOff = growZeroI32(t.predOff, np+1)
	for _, p := range t.atomPred {
		t.predOff[p+1]++
	}
	for p := 0; p < np; p++ {
		t.predOff[p+1] += t.predOff[p]
	}
	t.predCands = growI32(t.predCands, len(t.atomPred))
	t.predFill = growZeroI32(t.predFill, np)
	for i, p := range t.atomPred {
		t.predCands[t.predOff[p]+t.predFill[p]] = int32(i)
		t.predFill[p]++
	}
}

// Len returns the number of target atoms.
func (t *HomTarget) Len() int { return len(t.atomPred) }

// args returns atom ti's interned argument ids.
func (t *HomTarget) args(ti int32) []uint32 {
	return t.targs[t.atomOff[ti]:t.atomOff[ti+1]]
}

// candidates returns the target-order atom indexes with predicate pid.
func (t *HomTarget) candidates(pid uint32) []int32 {
	return t.predCands[t.predOff[pid]:t.predOff[pid+1]]
}

// Homs enumerates homomorphisms of src into the compiled target,
// extending init, exactly like the package-level Homs. Each yielded
// substitution is freshly materialized and owned by the callback.
func (t *HomTarget) Homs(src []cq.Atom, init cq.Subst, yield func(cq.Subst) bool) {
	t.HomsFrame(src, init, func(s cq.ISubst) bool {
		m := s.Subst()
		for v, tm := range init {
			if _, ok := m[v]; !ok {
				m[v] = tm
			}
		}
		return yield(m)
	})
}

// HomsFrame is the allocation-lean form of Homs: the yielded ISubst is a
// view over the kernel's reused binding frame, covers only variables
// that occur in src (init bindings for other variables are NOT merged —
// use Homs when they matter), and is valid only for the duration of the
// callback.
func (t *HomTarget) HomsFrame(src []cq.Atom, init cq.Subst, yield func(cq.ISubst) bool) {
	r := homRunPool.Get().(*homRun)
	r.t, r.yield = t, yield
	if r.compile(src, init) {
		r.rec(0)
	}
	r.flush()
	r.t, r.yield = nil, nil
	homRunPool.Put(r)
}

var homRunPool = sync.Pool{New: func() any { return new(homRun) }}

// homTargetPool recycles short-lived compiled targets for the
// package-level entry points (minimization probes a fresh candidate body
// on every call); long-lived targets come from NewHomTarget and are
// never pooled.
var homTargetPool = sync.Pool{New: func() any {
	return &HomTarget{in: cq.NewInterner()}
}}

// growI32 returns a length-n slice reusing s's storage when it fits.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growZeroI32 is growI32 plus zeroing.
func growZeroI32(s []int32, n int) []int32 {
	s = growI32(s, n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// occ is one occurrence of a variable: ordered atom position and
// argument index.
type occ struct {
	pos, arg int32
}

// homRun is the per-search state of the kernel: the compiled source
// (dense variable slots, candidate lists, static order) plus the mutable
// frame, liveness flags, and undo trails of the descent. Runs are pooled
// and every slice reuses its backing storage, so a search allocates
// nothing once the pool is warm.
type homRun struct {
	t     *HomTarget
	yield func(cq.ISubst) bool

	n    int      // number of source atoms
	vars []cq.Var // frame slot -> source variable

	// Arg codes per source atom (original src order), flattened: code
	// >= 0 is a variable's frame slot, code < 0 encodes interned
	// constant id -(code+1).
	codes   []int32
	codeOff []int32 // len n+1
	predID  []uint32

	// Candidate target-atom indexes per source atom, flattened, each
	// list in target order. alive/nAlive implement forward checking:
	// a candidate killed by a binding is skipped without being tried.
	cands   []int32
	candOff []int32 // len n+1
	alive   []bool
	nAlive  []int32

	order     []int32 // descent position -> source atom index
	used      []bool
	boundSlot []bool
	perVar    []occ // variable occurrences in descent-position space
	varOff    []int32
	varFill   []int32

	frame     []uint32
	bindTrail []int32
	killTrail []int64 // packed: source atom index <<32 | flat candidate index

	backtracks, prunes, found uint64
}

// homBacktracksHist records per-search backtrack counts into the
// process registry: the tail of this distribution is what the averaged
// hom_backtracks counter hides, and it is too deep to thread a per-run
// registry through (same reasoning as obs.Global for the counters).
var homBacktracksHist = obs.Process.Histogram(obs.HistHomBacktracks)

func (r *homRun) flush() {
	g := &obs.Global
	g.Add(obs.CtrHomSearches, 1)
	homBacktracksHist.Observe(int64(r.backtracks))
	if r.found > 0 {
		g.Add(obs.CtrHomsFound, int64(r.found))
		r.found = 0
	}
	if r.backtracks > 0 {
		g.Add(obs.CtrHomBacktracks, int64(r.backtracks))
		r.backtracks = 0
	}
	if r.prunes > 0 {
		g.Add(obs.CtrHomPrunes, int64(r.prunes))
		r.prunes = 0
	}
}

// compile builds the run state for src under init against r.t. It
// reports false when the search space is provably empty — a source
// predicate or constant the target has never interned, an init image
// outside the target's vocabulary, or an emptied candidate list — in
// which case no homomorphism exists and the descent is skipped.
// compile never writes into the target's interner.
func (r *homRun) compile(src []cq.Atom, init cq.Subst) bool {
	t := r.t
	r.n = len(src)
	r.bindTrail = r.bindTrail[:0]
	r.killTrail = r.killTrail[:0]
	if r.n == 0 {
		r.vars = r.vars[:0]
		r.frame = r.frame[:0]
		return true // one empty homomorphism
	}

	// Pass 1: intern-check source args, assign dense variable slots by
	// first occurrence in original source order.
	r.vars = r.vars[:0]
	r.codes = r.codes[:0]
	r.codeOff = append(r.codeOff[:0], 0)
	r.predID = r.predID[:0]
	for _, a := range src {
		pid, ok := t.in.LookupPred(a.Pred)
		if !ok || len(t.candidates(pid)) == 0 {
			return false
		}
		r.predID = append(r.predID, pid)
		for _, arg := range a.Args {
			if v, isVar := arg.(cq.Var); isVar {
				slot := int32(-1)
				for s, have := range r.vars {
					if have == v {
						slot = int32(s)
						break
					}
				}
				if slot < 0 {
					slot = int32(len(r.vars))
					r.vars = append(r.vars, v)
				}
				r.codes = append(r.codes, slot)
			} else {
				id, ok := t.in.Lookup(arg)
				if !ok {
					return false // constant absent from target: unmatchable
				}
				r.codes = append(r.codes, -int32(id)-1)
			}
		}
		r.codeOff = append(r.codeOff, int32(len(r.codes)))
	}

	// Pre-bind init images for frame variables. An init image the
	// target never interned can match no candidate argument, so the
	// search is empty.
	nv := len(r.vars)
	if cap(r.frame) < nv {
		r.frame = make([]uint32, nv)
	}
	r.frame = r.frame[:nv]
	for s, v := range r.vars {
		r.frame[s] = cq.NoTerm
		if img, bound := init[v]; bound {
			id, ok := t.in.Lookup(img)
			if !ok {
				return false
			}
			r.frame[s] = id
		}
	}

	// Pass 2: candidate lists per source atom, in target order,
	// prefiltered by arity plus constant and pre-bound-variable
	// positions. Constant/pre-bound eliminations are prunes: the old
	// scan would have tried and failed each of them.
	r.cands = r.cands[:0]
	r.candOff = append(r.candOff[:0], 0)
	for i := 0; i < r.n; i++ {
		lo, hi := r.codeOff[i], r.codeOff[i+1]
	candidates:
		for _, ti := range t.candidates(r.predID[i]) {
			targs := t.args(ti)
			if len(targs) != int(hi-lo) {
				continue
			}
			for j, code := range r.codes[lo:hi] {
				want := cq.NoTerm
				if code < 0 {
					want = uint32(-code - 1)
				} else if r.frame[code] != cq.NoTerm {
					want = r.frame[code]
				}
				if want != cq.NoTerm && targs[j] != want {
					r.prunes++
					continue candidates
				}
			}
			r.cands = append(r.cands, ti)
		}
		if int32(len(r.cands)) == r.candOff[i] {
			return false
		}
		r.candOff = append(r.candOff, int32(len(r.cands)))
	}

	// Static fail-first order, scored exactly as the historical
	// planOrder did (raw per-predicate candidate count, bonus for
	// already-bound variables and constants, greedy first-minimum over
	// source order) so the kernel enumerates homomorphisms in the
	// historical order and downstream results stay byte-identical.
	r.order = r.order[:0]
	r.used = growZeroBool(r.used, r.n)
	r.boundSlot = growZeroBool(r.boundSlot, nv)
	for len(r.order) < r.n {
		best, bestScore := int32(-1), 0
		for i := 0; i < r.n; i++ {
			if r.used[i] {
				continue
			}
			score := len(t.candidates(r.predID[i])) * 4
			for _, code := range r.codes[r.codeOff[i]:r.codeOff[i+1]] {
				if code >= 0 {
					if r.boundSlot[code] {
						score -= 3
					}
				} else {
					score--
				}
			}
			if best == -1 || score < bestScore {
				best, bestScore = int32(i), score
			}
		}
		r.used[best] = true
		for _, code := range r.codes[r.codeOff[best]:r.codeOff[best+1]] {
			if code >= 0 {
				r.boundSlot[code] = true
			}
		}
		r.order = append(r.order, best)
	}

	// Variable occurrences in descent-position space, ascending by
	// position, so forward checking can walk only future atoms.
	r.varOff = growZeroI32(r.varOff, nv+1)
	for _, si := range r.order {
		for _, code := range r.codes[r.codeOff[si]:r.codeOff[si+1]] {
			if code >= 0 {
				r.varOff[code+1]++
			}
		}
	}
	for s := 0; s < nv; s++ {
		r.varOff[s+1] += r.varOff[s]
	}
	if cap(r.perVar) < len(r.codes) {
		r.perVar = make([]occ, len(r.codes))
	}
	r.perVar = r.perVar[:len(r.codes)]
	r.varFill = growZeroI32(r.varFill, nv)
	for p, si := range r.order {
		lo := r.codeOff[si]
		for j, code := range r.codes[lo:r.codeOff[si+1]] {
			if code >= 0 {
				r.perVar[r.varOff[code]+r.varFill[code]] = occ{pos: int32(p), arg: int32(j)}
				r.varFill[code]++
			}
		}
	}

	if cap(r.alive) < len(r.cands) {
		r.alive = make([]bool, len(r.cands))
	}
	r.alive = r.alive[:len(r.cands)]
	for i := range r.alive {
		r.alive[i] = true
	}
	r.nAlive = growI32(r.nAlive, r.n)
	for i := 0; i < r.n; i++ {
		r.nAlive[i] = r.candOff[i+1] - r.candOff[i]
	}
	return true
}

// growZeroBool returns a zeroed length-n slice reusing s's storage when
// it fits.
func growZeroBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// rec places the source atom at descent position p onto each live
// candidate in turn, binding fresh variables into the frame and forward
// checking each new binding against future atoms' candidate lists. It
// returns false to propagate an early stop from yield.
func (r *homRun) rec(p int) bool {
	if p == r.n {
		r.found++
		return r.yield(cq.MakeISubst(r.t.in, r.vars, r.frame))
	}
	si := r.order[p]
	lo, hi := r.codeOff[si], r.codeOff[si+1]
	for ci := r.candOff[si]; ci < r.candOff[si+1]; ci++ {
		if !r.alive[ci] {
			continue
		}
		targs := r.t.args(r.cands[ci])
		bindMark := len(r.bindTrail)
		killMark := len(r.killTrail)
		ok := true
		for j, code := range r.codes[lo:hi] {
			if code < 0 {
				continue // constants prefiltered at compile time
			}
			cid := targs[j]
			if img := r.frame[code]; img != cq.NoTerm {
				if img != cid {
					ok = false
					break
				}
				continue
			}
			r.frame[code] = cid
			r.bindTrail = append(r.bindTrail, code)
			if !r.forwardCheck(code, cid, p) {
				ok = false
				break
			}
		}
		if ok {
			if !r.rec(p + 1) {
				return false
			}
		}
		r.backtracks++
		for len(r.bindTrail) > bindMark {
			last := len(r.bindTrail) - 1
			r.frame[r.bindTrail[last]] = cq.NoTerm
			r.bindTrail = r.bindTrail[:last]
		}
		for len(r.killTrail) > killMark {
			last := len(r.killTrail) - 1
			k := r.killTrail[last]
			r.alive[uint32(k)] = true
			r.nAlive[k>>32]++
			r.killTrail = r.killTrail[:last]
		}
	}
	return true
}

// forwardCheck propagates the fresh binding slot=cid to every future
// occurrence of the variable: candidates whose argument there differs
// are killed (and counted as prunes). It reports false when some future
// atom has no live candidate left, so the current placement fails
// before descending.
func (r *homRun) forwardCheck(slot int32, cid uint32, p int) bool {
	for _, o := range r.perVar[r.varOff[slot]:r.varOff[slot+1]] {
		if int(o.pos) <= p {
			continue
		}
		fi := r.order[o.pos]
		for ci := r.candOff[fi]; ci < r.candOff[fi+1]; ci++ {
			if r.alive[ci] && r.t.args(r.cands[ci])[o.arg] != cid {
				r.alive[ci] = false
				r.nAlive[fi]--
				r.killTrail = append(r.killTrail, int64(fi)<<32|int64(ci))
				r.prunes++
			}
		}
		if r.nAlive[fi] == 0 {
			return false
		}
	}
	return true
}
