package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"viewplan/internal/lint/analysis"
)

// InternMix guards the engine's symbol-table boundary. Interned uint32
// ids are dense indexes into one *engine.Interner's table: the same id
// names different constants in different Databases, so an id that
// crosses from one interner to another silently aliases an unrelated
// value — a wrong-results bug no test that uses a single database can
// see. The PR 3 join kernel translates foreign rows explicitly
// (db.in.ID(cur.in.Value(id))); everything else must too.
//
// The planner's cq.Interner (PR 6) has the same failure mode with two
// id spaces of its own — predicate ids from PredID/LookupPred and term
// ids from ID/Lookup — and every HomTarget compiles against a different
// instance, so its ids are just as private and the analyzer covers it
// under the same rules.
//
// Per function body, flow-insensitively, the analyzer tracks which
// interner produced each id-holding variable (assignments from
// <owner>.ID(…) / <owner>.Lookup(…) / <owner>.PredID(…) /
// <owner>.LookupPred(…), where <owner> is an engine.Interner,
// engine.Database, or cq.Interner expression) and reports:
//
//   - an id from owner A passed to a resolving call on owner B
//     (B.Value(id), B.tuple(ids)),
//   - ids from different owners compared with == or !=,
//   - raw integers converted straight into id positions of resolving
//     calls (Value(uint32(x))): minting ids without the interner.
//
// Translating on purpose (re-interning through .ID) needs no
// annotation; anything else that mixes owners is annotated
// //viewplan:intern-ok <reason>.
var InternMix = &analysis.Analyzer{
	Name:     "internmix",
	Doc:      "flags interned uint32 ids crossing Interner/Database boundaries and raw integer-to-id conversions that bypass the interner",
	Suppress: "intern-ok",
	Run:      runInternMix,
}

// internerMethods produce ids; resolveMethods consume them. PredID /
// LookupPred / PredName are cq.Interner's predicate-id space; the
// analyzer does not distinguish predicate ids from term ids — the two
// spaces live on the same owner and mixing them is its own bug, but one
// a type wrapper would catch, not this analyzer.
var internerProducers = map[string]bool{
	"ID": true, "Lookup": true, "PredID": true, "LookupPred": true,
}
var internerResolvers = map[string]bool{
	"Value": true, "tuple": true, "PredName": true,
}

func runInternMix(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(node ast.Node, body *ast.BlockStmt) {
			checkInternMix(pass, body)
		})
	}
	return nil
}

// ownerExpr returns the canonical string of the interner expression a
// producing/consuming method is invoked on, or "" when the call is not
// an Interner/Database method of interest.
func ownerExpr(info *types.Info, call *ast.CallExpr, methods map[string]bool) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !methods[sel.Sel.Name] {
		return ""
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return ""
	}
	recv := selection.Recv()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	if !isNamed(recv, "engine", "Interner") && !isNamed(recv, "engine", "Database") &&
		!isNamed(recv, "cq", "Interner") {
		return ""
	}
	return types.ExprString(sel.X)
}

func checkInternMix(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	// First pass: provenance of id variables, in syntactic order
	// (flow-insensitive: one owner per variable; reassignment from a
	// different owner is itself suspicious but out of scope here).
	prov := make(map[types.Object]string)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		var owner string
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			owner = ownerExpr(info, call, internerProducers)
		} else if id, ok := as.Rhs[0].(*ast.Ident); ok {
			// Copying an id propagates its provenance.
			if obj := info.Uses[id]; obj != nil {
				owner = prov[obj]
			}
		}
		if owner == "" {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				prov[obj] = owner
			}
		}
		return true
	})
	provOf := func(e ast.Expr) string {
		id := rootIdent(info, e)
		if id == nil {
			return ""
		}
		if obj := info.Uses[id]; obj != nil {
			return prov[obj]
		}
		return ""
	}
	// Second pass: sinks.
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			owner := ownerExpr(info, x, internerResolvers)
			if owner == "" {
				return true
			}
			for _, arg := range x.Args {
				if p := provOf(arg); p != "" && p != owner {
					pass.Reportf(arg.Pos(),
						"interned id produced by %s resolved against %s: ids are private to one interner; "+
							"translate via %s.ID(%s.Value(id)) or annotate //viewplan:intern-ok <reason>",
						p, owner, owner, p)
				}
				if conv, ok := arg.(*ast.CallExpr); ok && info.Types[conv.Fun].IsType() && len(conv.Args) == 1 {
					if basic, ok := info.Types[conv.Fun].Type.Underlying().(*types.Basic); ok && basic.Kind() == types.Uint32 {
						if at, ok := info.Types[conv.Args[0]]; ok {
							if ab, ok := at.Type.Underlying().(*types.Basic); !ok || ab.Kind() != types.Uint32 {
								pass.Reportf(arg.Pos(),
									"raw integer converted to an interned id at a resolving call: ids come from Interner.ID, "+
										"or annotate //viewplan:intern-ok <reason>")
							}
						}
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op != token.EQL && x.Op != token.NEQ {
				return true
			}
			pl, pr := provOf(x.X), provOf(x.Y)
			if pl != "" && pr != "" && pl != pr {
				pass.Reportf(x.OpPos,
					"comparing interned ids from different interners (%s vs %s): equal ids name unrelated values across tables; "+
						"compare resolved Values or annotate //viewplan:intern-ok <reason>", pl, pr)
			}
		}
		return true
	})
}
