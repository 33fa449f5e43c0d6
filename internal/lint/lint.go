// Package lint hosts viewplanlint's analyzers: machine checks for the
// invariants the planner's determinism guarantees rest on (DESIGN §8,
// §10). Each analyzer encodes one prose rule from DESIGN/CHANGES as a
// compile-time check:
//
//   - mapiterdet: no unsorted map iteration on result-producing paths
//   - tracerparam: tracers are threaded as parameters, not loaded from
//     struct fields on hot paths (the PR 1 escape-analysis rule)
//   - internmix: interned uint32 ids never cross *engine.Database /
//     *engine.Interner boundaries, and nothing converts raw integers
//     into ids behind the interner's back
//   - wallclock: no wall-clock or global-seed randomness outside the
//     observability and workload-generation layers
//   - sortslice, nilness: general-purpose passes not in `go vet`
//   - poolsafe: sync.Pool checkouts (the containment kernel's pooled
//     homomorphism frames) are never used, stored, or returned past
//     their Put/release point
//   - frozenwrite: publish-then-immutable types (the resident
//     ViewCatalog, compiled HomTargets) are only written while provably
//     fresh — the copy-on-write discipline, machine-checked
//   - locksafe: no second same-owner (stripe) lock acquisition while
//     one is held — interprocedurally, through the package-local call
//     graph
//
// The analyzers read production sources only: the loader never parses
// _test.go files. What a test could break that these rules guard —
// a copied lock, a plain read of an atomic — is `go vet`'s copylocks
// ground or, with the tree's typed sync/atomic wrappers only, a compile
// error.
//
// Findings are suppressed — never silently — by //viewplan:<key> <reason>
// annotations; see package analysis. Analyzers match types structurally
// (package name + type name) rather than by import path, so the
// analysistest fixtures under testdata can model obs/engine with tiny
// stand-in packages.
package lint

import (
	"go/ast"
	"go/types"

	"viewplan/internal/lint/analysis"
)

// Analyzers returns the full viewplanlint suite in report order.
//
// Two upstream x/tools passes the multichecker would ideally bundle are
// deliberately absent: nilness (the SSA-based one; the nilness analyzer
// here is a source-level subset) and unusedwrite, both of which require
// golang.org/x/tools/go/ssa, unavailable in this container's empty
// module cache. copylocks, also named by the roadmap, already runs in
// the `go vet` gate ahead of viewplanlint.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapIterDet,
		TracerParam,
		InternMix,
		WallClock,
		SortSlice,
		Nilness,
		PoolSafe,
		FrozenWrite,
		LockSafe,
	}
}

// determinismCritical names the packages whose map-iteration order can
// leak into planner results: the CoreCover pipeline and everything it
// calls to produce a Result (ISSUE 4 tentpole list), plus obs, whose
// snapshot/text rendering is part of the byte-identical Result
// guarantee.
var determinismCritical = map[string]bool{
	"corecover":   true,
	"views":       true,
	"cost":        true,
	"cq":          true,
	"ucq":         true,
	"minicon":     true,
	"bucket":      true,
	"containment": true,
	"engine":      true,
	"obs":         true,
}

// tracerCritical names the packages where an *obs.Tracer struct-field
// load sits on a planning hot path. obs itself is exempt (the Span
// holds its tracer by design).
var tracerCritical = map[string]bool{
	"corecover":   true,
	"views":       true,
	"cost":        true,
	"cq":          true,
	"ucq":         true,
	"minicon":     true,
	"bucket":      true,
	"containment": true,
	"engine":      true,
}

// wallClockExempt names the packages allowed to read the clock or the
// global math/rand source: the observability layer (spans time
// themselves), synthetic workload/data generation, and cmd binaries
// (package main) that report wall times to humans. Tests are never
// loaded by the driver, so they are implicitly exempt.
var wallClockExempt = map[string]bool{
	"obs":      true,
	"workload": true,
	"main":     true,
}

// isNamed reports whether t is the named (or aliased) type
// pkgName.typeName, matching structurally by name so testdata fixtures
// can stand in for the real packages.
func isNamed(t types.Type, pkgName, typeName string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// isPtrToNamed reports whether t is *pkgName.typeName.
func isPtrToNamed(t types.Type, pkgName, typeName string) bool {
	p, ok := t.Underlying().(*types.Pointer)
	return ok && isNamed(p.Elem(), pkgName, typeName)
}

// funcBodies yields every function body in f with its declaration node:
// FuncDecls plus top-level FuncLits (nested literals are walked as part
// of their enclosing body).
func funcBodies(f *ast.File, visit func(node ast.Node, body *ast.BlockStmt)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if ok && fd.Body != nil {
			visit(fd, fd.Body)
		}
	}
	// Function literals bound outside any FuncDecl (package-level vars).
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		ast.Inspect(gd, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
				visit(fl, fl.Body)
				return false
			}
			return true
		})
	}
}

// pkgNameOf resolves the package an identifier qualifies, when it names
// an import (e.g. the `time` in time.Now); otherwise "".
func pkgPathOf(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// isBuiltin reports whether id names the predeclared builtin (len,
// append, delete, …) rather than a shadowing user identifier.
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	switch info.Uses[id].(type) {
	case nil, *types.Builtin:
		return true
	}
	return false
}

// rootIdent unwraps conversions, parens, unary and index expressions
// down to the base identifier, or nil.
func rootIdent(info *types.Info, e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			// Conversions unwrap to their operand; real calls stop.
			if len(x.Args) == 1 && info.Types[x.Fun].IsType() {
				e = x.Args[0]
				continue
			}
			return nil
		default:
			return nil
		}
	}
}
