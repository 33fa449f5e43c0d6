package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"viewplan/internal/lint/analysis"
)

// FrozenWrite flags field and element writes to published instances of
// the repo's frozen types. The resident ViewCatalog is immutable after
// publication: readers load it through an atomic pointer with no lock,
// which is only sound because no write ever touches a catalog that has
// been stored. Mutations are copy-on-write — AddViews/RemoveView build
// a fresh successor and hand it to the caller to publish — so the only
// legal writes are to values the writing function itself constructed
// (or received, provably, as a not-yet-published fresh copy).
//
// Freshness is interprocedural within the package: a value is fresh if
// it came from a composite literal, new/make, a sync.Pool checkout
// (exclusive until Put), or a package-local call whose every return
// path yields a fresh value (ReturnsFresh); and an *unexported*
// function's parameter is fresh when every call site in the package
// passes a fresh value — which is exactly how Catalog.rebuildWork may
// write its receiver's slabs: it is only ever called on a successor
// under construction. Exported functions' parameters are never fresh
// (any caller could pass a published instance).
var FrozenWrite = &analysis.Analyzer{
	Name:     "frozenwrite",
	Doc:      "flags writes to frozen (publish-then-immutable) types outside their copy-on-write construction",
	Suppress: "frozen-ok",
	Run:      runFrozenWrite,
}

// frozenTypes names the publish-then-immutable types, matched
// structurally (package name + type name) so fixtures can stand in.
// Catalog is the resident view catalog (shared via atomic.Pointer);
// HomTarget is the compiled containment target ("immutable after
// NewHomTarget returns", shared through the target pool and every
// BatchProber probing it);
// rendering is the service's memoized answer (shared via sync.Map).
var frozenTypes = []struct{ pkg, typ string }{
	{"corecover", "Catalog"},
	{"viewplan", "ViewCatalog"},
	{"containment", "HomTarget"},
	{"service", "rendering"},
}

func isFrozen(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, ft := range frozenTypes {
		if isNamed(t, ft.pkg, ft.typ) {
			return true
		}
	}
	return false
}

func runFrozenWrite(pass *analysis.Pass) error {
	g, sums := pass.Interproc()
	info := pass.TypesInfo

	fresh := newFreshness(info, g, sums)
	fresh.solve()

	for _, f := range pass.Files {
		funcBodies(f, func(node ast.Node, body *ast.BlockStmt) {
			vars := fresh.bodyVars(body)
			check := func(lhs ast.Expr) {
				frozenBase := frozenInChain(info, lhs)
				if frozenBase == nil {
					return
				}
				root := analysis.BaseIdent(lhs)
				if root != nil && fresh.isFreshObj(identUse(info, root), vars) {
					return
				}
				what := "value"
				if root != nil {
					what = root.Name
				}
				pass.Reportf(lhs.Pos(),
					"write to frozen %s through %q: %s is publish-then-immutable — mutate only fresh copy-on-write successors (//viewplan:frozen-ok <reason>)",
					frozenTypeName(info, frozenBase), what, frozenTypeName(info, frozenBase))
			}
			ast.Inspect(body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						check(lhs)
					}
				case *ast.IncDecStmt:
					check(x.X)
				}
				return true
			})
		})
	}
	return nil
}

// frozenInChain walks an assignment target's selector/index chain and
// returns the first sub-expression of frozen type it passes through
// (`cat.views[i]` → cat), or nil. A plain identifier of frozen type is
// not a write *into* the frozen value (rebinding a variable is always
// fine), so the chain must have at least one selector or index step.
func frozenInChain(info *types.Info, lhs ast.Expr) ast.Expr {
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if t, ok := info.Types[x.X]; ok && isFrozen(t.Type) {
				return x.X
			}
			e = x.X
		case *ast.IndexExpr:
			if t, ok := info.Types[x.X]; ok && isFrozen(t.Type) {
				return x.X
			}
			e = x.X
		default:
			return nil
		}
	}
}

func frozenTypeName(info *types.Info, e ast.Expr) string {
	t := info.Types[e].Type
	if t == nil {
		return "type"
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Name() + "." + n.Obj().Name()
	}
	return t.String()
}

// freshness solves, package-wide, which unexported-function parameters
// are only ever bound to fresh (unpublished) values.
type freshness struct {
	info *types.Info
	g    *analysis.CallGraph
	sums map[*types.Func]*analysis.Summary

	// param facts, keyed by the parameter variable.
	candidate map[types.Object]bool // unexported fn param of frozen type
	poisoned  map[types.Object]bool // some call site passes non-fresh
	called    map[types.Object]bool // has at least one call site
}

func newFreshness(info *types.Info, g *analysis.CallGraph, sums map[*types.Func]*analysis.Summary) *freshness {
	fr := &freshness{
		info:      info,
		g:         g,
		sums:      sums,
		candidate: make(map[types.Object]bool),
		poisoned:  make(map[types.Object]bool),
		called:    make(map[types.Object]bool),
	}
	for _, n := range g.Nodes {
		if n.Obj.Exported() {
			continue
		}
		for _, p := range n.Params {
			if isFrozen(p.Type()) {
				fr.candidate[p] = true
			}
		}
	}
	return fr
}

// isFreshObj reports whether obj is fresh in a body whose fresh local
// set is vars: a fresh local, or a fresh-only parameter.
func (fr *freshness) isFreshObj(obj types.Object, vars map[types.Object]bool) bool {
	if obj == nil {
		return false
	}
	if vars[obj] {
		return true
	}
	return fr.candidate[obj] && !fr.poisoned[obj] && fr.called[obj]
}

// freshExpr: is e certainly freshly constructed in this body?
func (fr *freshness) freshExpr(e ast.Expr, vars map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fr.freshExpr(x.X, vars)
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, lit := x.X.(*ast.CompositeLit)
			return lit
		}
	case *ast.TypeAssertExpr:
		return fr.freshExpr(x.X, vars)
	case *ast.Ident:
		return fr.isFreshObj(identUse(fr.info, x), vars)
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok {
			if b, ok := fr.info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "new" || b.Name() == "make"
			}
		}
		if analysis.IsPoolGet(fr.info, x) {
			return true
		}
		if cs := fr.sums[analysis.CalleeOf(fr.info, x)]; cs != nil {
			return cs.ReturnsFresh
		}
	}
	return false
}

// bodyVars computes the body's fresh locals: variables whose every
// binding is a fresh expression.
func (fr *freshness) bodyVars(body *ast.BlockStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	poisonedLocal := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) == 0 {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := identUse(fr.info, id)
				if obj == nil {
					continue
				}
				rhs := as.Rhs[0]
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if i > 0 {
					// x, err := f(): freshness of f covers result 0 only;
					// later results (errors) are never written through, so
					// their freshness is irrelevant — skip.
					continue
				}
				if fr.freshExpr(rhs, vars) {
					if !vars[obj] && !poisonedLocal[obj] {
						vars[obj] = true
						changed = true
					}
				} else if !poisonedLocal[obj] {
					poisonedLocal[obj] = true
					if vars[obj] {
						delete(vars, obj)
					}
					changed = true
				}
			}
			return true
		})
	}
	return vars
}

// solve iterates call-site checking to a fixpoint: a candidate
// parameter is poisoned as soon as any package-local call site passes
// it a value not provably fresh (freshness of arguments can depend on
// other parameters' freshness, hence the loop).
func (fr *freshness) solve() {
	if len(fr.candidate) == 0 {
		return
	}
	for changed := true; changed; {
		changed = false
		for _, n := range fr.g.Nodes {
			vars := fr.bodyVars(n.Decl.Body)
			ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := analysis.CalleeOf(fr.info, call)
				cn := fr.g.ByObj[callee]
				if cn == nil {
					return true
				}
				args := analysis.CallArgs(fr.info, call)
				for i, p := range cn.Params {
					if !fr.candidate[p] {
						continue
					}
					if !fr.called[p] {
						fr.called[p] = true
						changed = true
					}
					ok := i < len(args) && fr.freshExpr(args[i], vars)
					if !ok && !fr.poisoned[p] {
						fr.poisoned[p] = true
						changed = true
					}
				}
				return true
			})
		}
	}
}
