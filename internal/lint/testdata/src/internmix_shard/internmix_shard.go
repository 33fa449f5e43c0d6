// The internmix_shard fixture pins the analyzer's behavior on the
// view-tuple candidate prefilter's id space (the directory name predates
// the single planning pipeline, whose prefilter this was first built
// for). The prefilter's currency is the catalog-interned predicate id:
// resolving one against the catalog that minted it is legitimate;
// resolving or comparing it against a different catalog — a successor
// generation's vocabulary is a different id space — is the bug the
// boundary exists for.
package shard

import "corecover"

// prefilter is the candidate filter's legitimate shape: predicate ids
// minted by a catalog are resolved against that same catalog.
func prefilter(cat *corecover.Catalog, queryPreds []string, viewPred string) bool {
	want, ok := cat.LookupPred(viewPred)
	if !ok {
		return false
	}
	for _, p := range queryPreds {
		if id, ok := cat.LookupPred(p); ok && id == want {
			return true
		}
	}
	return false
}

// crossCatalogPrefilter is the bug the boundary exists for: a prefilter
// id from one catalog tested against a successor generation, whose
// vocabulary is a different id space.
func crossCatalogPrefilter(cat *corecover.Catalog, viewPred string) string {
	id, ok := cat.LookupPred(viewPred)
	if !ok {
		return ""
	}
	next := cat.AddViews("v42")
	return next.PredName(id) // want `ids are private to one interner`
}

// ownersCompared mixes the two id spaces with a comparison: a
// catalog-interned id against another catalog's.
func ownersCompared(a, b *corecover.Catalog, name string) bool {
	ida, _ := a.LookupPred(name)
	idb, _ := b.LookupPred(name)
	return ida == idb // want `comparing interned ids from different interners`
}
