package containment

import (
	"viewplan/internal/cq"
	"viewplan/internal/obs"
)

// BatchProber evaluates many query bodies against one canonical
// database through a single pooled search frame. EvaluateFunc pays a
// homRunPool round-trip per call; when a planning run probes every view
// of a 20k-view catalog against the same frozen query, that per-view
// setup dominates the (mostly failing) searches themselves. A prober
// claims the frame once, amortizes it across the whole batch, and
// returns it on Close. One prober serves one goroutine.
//
// Every Evaluate still flushes the kernel's telemetry, so hom_searches
// and the backtrack histogram count probes exactly as the unbatched
// path does; batched_probes additionally counts the probes that went
// through a batch frame.
type BatchProber struct {
	t      *HomTarget
	r      *homRun
	args   []cq.Term
	probes int64
}

// NewBatchProber claims a search frame for a batch of probes against
// db. The caller must Close the prober to return the frame.
func NewBatchProber(db *CanonicalDB) *BatchProber {
	return &BatchProber{t: db.Target(), r: homRunPool.Get().(*homRun)}
}

// Evaluate is CanonicalDB.EvaluateFunc through the batch frame: for
// every homomorphism of the query body into the database facts, yield
// receives the image of the head's arguments in a buffer reused across
// calls. Duplicate images are not filtered.
func (p *BatchProber) Evaluate(query *cq.Query, yield func(args []cq.Term) bool) {
	p.probes++
	head := query.Head.Args
	if cap(p.args) < len(head) {
		p.args = make([]cq.Term, len(head))
	}
	args := p.args[:len(head)]
	r := p.r
	r.t = p.t
	r.yield = func(h cq.ISubst) bool {
		for i, arg := range head {
			args[i] = h.Apply(arg)
		}
		return yield(args)
	}
	if r.compile(query.Body, nil) {
		r.rec(0)
	}
	r.flush()
	r.t, r.yield = nil, nil
}

// Close publishes the batch counter and returns the frame to the pool.
// The prober must not be used afterwards.
func (p *BatchProber) Close() {
	if p.r == nil {
		return
	}
	obs.Global.Add(obs.CtrBatchedProbes, p.probes)
	p.probes = 0
	homRunPool.Put(p.r)
	p.r = nil
}
