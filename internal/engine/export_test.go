package engine

// DirectIndex reports whether r's join index on cols takes the direct
// layout. It exists for the external tests, which pin the layout of
// workload relations the package's own tests cannot import.
func DirectIndex(r *Relation, cols []int) bool { return r.indexFor(cols).keys == nil }
