package engine

import (
	"sync"

	"viewplan/internal/obs"
)

// IRCache memoizes intermediate relations across the planner's
// candidate-rewriting loop. The hundreds of minimal rewritings CoreCover
// produces for one query share view tuples, so the cost optimizers' one
// order search (the subset lattice, under M2 and M3 alike) keeps
// re-materializing joins over the same subgoal sets; the cache hands
// back the relation computed the first time instead.
//
// Keys are chosen by the caller (the cost optimizers) and name what
// determines the relation, never an order. For M2, the canonical sorted
// set of subgoal atom strings: any join order over the same set yields
// the same rows. For M3, the same sorted set with the renames the drops
// applied to it (fresh names numbered by first occurrence) plus the
// retained variables: a generalized supplementary relation is the
// projection of that renamed join. A cached relation is reusable across
// orders and rewritings, modulo a column permutation that IRLookup
// applies.
//
// The M2 search orders subgoals by the sizes of intermediate relations
// and materializes few of them, so the cache also memoizes exact sizes
// under the same keys: a size learned by JoinCount for one candidate is
// not counted again for the next.
//
// Entries are invalidated wholesale when the database's mutation
// counter moves: any Insert into any of the database's relations bumps
// it, and the next cache access starts from empty.
type IRCache struct {
	mu    sync.Mutex
	gen   uint64
	m     map[string]*VarRelation
	sizes map[string]int
}

// NewIRCache creates an empty cache.
func NewIRCache() *IRCache {
	return &IRCache{m: make(map[string]*VarRelation), sizes: make(map[string]int)}
}

// SetIRCache attaches (or, with nil, detaches) an intermediate-relation
// cache. The planner attaches a fresh cache per PlanQuery call; attach
// one yourself to share materialized IRs across planning runs over an
// unchanged database. Not safe to change while queries run.
func (db *Database) SetIRCache(c *IRCache) { db.ir = c }

// IRCache returns the attached cache (nil when memoization is off).
func (db *Database) IRCache() *IRCache { return db.ir }

// lockedSync points m at a fresh map when the database has been
// mutated since the cache last ran. Callers hold c.mu.
func (c *IRCache) lockedSync(dbGen uint64) {
	if c.gen != dbGen {
		c.m = make(map[string]*VarRelation)
		c.sizes = make(map[string]int)
		c.gen = dbGen
	}
}

// IRLookup returns the relation memoized under key with its columns in
// want order, remapping (a pure permutation copy) when the cached
// schema ordering differs. The returned relation is shared — callers
// must treat it as immutable, which the cost optimizers do. Without an
// attached cache every lookup misses silently; with one, hits and
// misses tick the ir_cache counters on the database's tracer.
func (db *Database) IRLookup(key string, want Schema) (*VarRelation, bool) {
	c := db.ir
	if c == nil {
		return nil, false
	}
	tr := db.Tracer()
	c.mu.Lock()
	c.lockedSync(db.gen)
	vr := c.m[key]
	c.mu.Unlock()
	if vr != nil {
		if schemaEqual(vr.Schema, want) {
			tr.Add(obs.CtrIRCacheHit, 1)
			return vr, true
		}
		if re, ok := vr.remapped(want); ok {
			tr.Add(obs.CtrIRCacheHit, 1)
			return re, true
		}
	}
	tr.Add(obs.CtrIRCacheMiss, 1)
	return nil, false
}

// IRStore memoizes a relation produced by the database's join kernel
// under key. Relations with foreign symbol tables are not shareable and
// are ignored. No-op without an attached cache.
func (db *Database) IRStore(key string, vr *VarRelation) {
	c := db.ir
	if c == nil || vr == nil || vr.in != db.in {
		return
	}
	c.mu.Lock()
	c.lockedSync(db.gen)
	c.m[key] = vr
	c.sizes[key] = vr.n
	c.mu.Unlock()
}

// IRSize returns the exact size memoized under key by IRStoreSize or
// IRStore. Like
// IRLookup it misses silently without an attached cache and ticks the
// ir_cache counters with one: a hit is a count probe not run.
func (db *Database) IRSize(key string) (int, bool) {
	c := db.ir
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	c.lockedSync(db.gen)
	n, ok := c.sizes[key]
	c.mu.Unlock()
	if ok {
		db.Tracer().Add(obs.CtrIRCacheHit, 1)
	} else {
		db.Tracer().Add(obs.CtrIRCacheMiss, 1)
	}
	return n, ok
}

// IRStoreSize memoizes the exact size of the intermediate relation key
// names. No-op without an attached cache.
func (db *Database) IRStoreSize(key string, n int) {
	c := db.ir
	if c == nil {
		return
	}
	c.mu.Lock()
	c.lockedSync(db.gen)
	c.sizes[key] = n
	c.mu.Unlock()
}

func schemaEqual(a, b Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
