// The locksafe fixture declares package corecover to mirror the real
// striped PlanCache. The stripe discipline: the cache is deadlock-free
// only because no code path ever holds two stripe locks at once.
package corecover

import "sync"

type planStripe struct {
	mu sync.Mutex
	m  map[string]int
}

type PlanCache struct {
	stripes [4]planStripe
}

// Get locks exactly one stripe: the legal shape.
func (c *PlanCache) Get(k string, i int) (int, bool) {
	s := &c.stripes[i]
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Len locks each stripe in turn, releasing before the next: legal —
// at most one stripe lock is ever held.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
		n += len(c.stripes[i].m)
		c.stripes[i].mu.Unlock()
	}
	return n
}

// moveEntry holds two stripe locks at once: with i/j hashed in opposite
// order on another goroutine, this deadlocks.
func (c *PlanCache) moveEntry(k string, i, j int) {
	a, b := &c.stripes[i], &c.stripes[j]
	a.mu.Lock()
	b.mu.Lock() // want `stripe discipline`
	b.m[k] = a.m[k]
	b.mu.Unlock()
	a.mu.Unlock()
}

// lockAndCount calls Len — whose summary says it acquires stripe locks
// — while already holding one: the same deadlock, one call deep.
func (c *PlanCache) lockAndCount(i int) int {
	c.stripes[i].mu.Lock()
	defer c.stripes[i].mu.Unlock()
	return c.Len() // want `stripe-discipline violation through the call graph`
}

type registry struct {
	mu sync.RWMutex
	m  map[string]int
}

// upgradeWrong takes the write lock while still holding the read lock
// on the same RWMutex: guaranteed self-deadlock under a waiting writer.
func (r *registry) upgradeWrong(k string) int {
	r.mu.RLock()
	v, ok := r.m[k]
	if !ok {
		r.mu.Lock() // want `already held`
		r.m[k] = 1
		r.mu.Unlock()
	}
	r.mu.RUnlock()
	return v
}

// upgradeRight is the obs.Registry pattern: drop the read lock, then
// take the write lock and re-check. Legal.
func (r *registry) upgradeRight(k string) int {
	r.mu.RLock()
	v, ok := r.m[k]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[k]; ok {
		return v
	}
	r.m[k] = 1
	return 1
}
