// The frozenwrite fixture declares package corecover so its Catalog
// stand-in matches the analyzer's frozen-type list. A Catalog is
// publish-then-immutable: readers load it through an atomic pointer
// with no lock, so the only legal writes are to values the writing
// function itself constructed (copy-on-write).
package corecover

type view struct{ name string }

type Catalog struct {
	views  []view
	byName map[string]int
	gen    uint64
}

// resident stands in for the atomic.Pointer publication slot.
var resident *Catalog

// Publish stores the catalog for lock-free readers.
func Publish(c *Catalog) { resident = c }

// NewCatalog writes only the fresh value it is constructing: legal.
func NewCatalog(vs []view) *Catalog {
	c := &Catalog{byName: make(map[string]int)}
	for i, v := range vs {
		c.views = append(c.views, v)
		c.byName[v.name] = i
	}
	return c
}

// AddViews is copy-on-write: the successor is fresh until returned, so
// writing it — directly or through reindex — is legal.
func (c *Catalog) AddViews(vs []view) *Catalog {
	next := &Catalog{byName: make(map[string]int, len(c.byName)+len(vs))}
	next.views = append(next.views, c.views...)
	next.views = append(next.views, vs...)
	next.reindex()
	return next
}

// reindex writes its receiver. That is legal only because it is
// unexported and every package-local call site passes a catalog still
// under construction (the fresh-only-parameter rule).
func (c *Catalog) reindex() {
	for i, v := range c.views {
		c.byName[v.name] = i
	}
}

// bumpGeneration mutates the published catalog in place: the exact bug
// the analyzer exists for — lock-free readers can observe the tear.
func bumpGeneration() {
	resident.gen++ // want `write to frozen corecover\.Catalog`
}

// RemoveView mutates its receiver. An exported method's receiver is
// never provably fresh (any caller could pass a published instance), so
// the in-place truncation is flagged; the fix is a fresh successor as
// in AddViews.
func (c *Catalog) RemoveView(name string) {
	c.views = c.views[:0] // want `write to frozen corecover\.Catalog`
}

// stamp's parameter is a freshness candidate (unexported, frozen-typed)
// but misuse passes it the published catalog, poisoning it: the write
// through it is flagged at the write site.
func stamp(c *Catalog) {
	c.gen = 1 // want `write to frozen corecover\.Catalog`
}

func misuse() {
	stamp(resident)
}
