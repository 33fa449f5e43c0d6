package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"viewplan/internal/lint/analysis"
)

// MapIterDet flags `for … range` over a map in determinism-critical
// packages. Go randomizes map iteration order per run, so any map range
// on a result-producing path is a reproducibility bug: CoreCover's
// byte-identical-Result guarantee (DESIGN §8), the canonical forms
// keying PlanCache and the tuple numbering keying the planning memo
// (cost.Memo) all die by a thousand such cuts.
//
// A map range passes without annotation only when the analyzer can see
// that iteration order cannot leak:
//
//   - the body only feeds slices that are sorted later in the same
//     function (append-then-sort),
//   - or the body only performs commutative aggregation: op= updates
//     (`+= -= *= |= &= ^= &^=`), ++/--, min/max folds
//     (`if v > best { best = v }`), idempotent constant stores,
//     writes into another map keyed by the range key, set inserts
//     (`other.Add(k)` on a map-backed set, keyed by the range key),
//     deletes, lazy container initialization (`if x == nil { x =
//     make(…) }`), and guards whose conditions don't read loop-mutated
//     state.
//
// Calls inside those forms are allowed when the interprocedural
// summaries prove them pure (no caller-visible effects — includes the
// sync/atomic Load methods) and their operands don't read loop-mutated
// state: a pure call over loop-invariant or key-derived inputs yields
// the same value from every iteration order.
//
// Everything else needs `//viewplan:nondet-ok <reason>` on the range
// line (or the line above): the reason is the reviewer-facing proof of
// order-independence.
var MapIterDet = &analysis.Analyzer{
	Name:     "mapiterdet",
	Doc:      "flags map iteration in determinism-critical packages unless it provably cannot leak order (sorted sink or commutative aggregate)",
	Suppress: "nondet-ok",
	Run:      runMapIterDet,
}

func runMapIterDet(pass *analysis.Pass) error {
	if !determinismCritical[pass.Pkg.Name()] {
		return nil
	}
	_, sums := pass.Interproc()
	for _, f := range pass.Files {
		funcBodies(f, func(node ast.Node, body *ast.BlockStmt) {
			sorted := sortedSinks(pass.TypesInfo, body)
			ast.Inspect(body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rs.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				b := &benignChecker{
					info:   pass.TypesInfo,
					sums:   sums,
					sorted: sorted,
					loop:   rs,
				}
				if b.rangeOK(rs) {
					return true
				}
				pass.Reportf(rs.For,
					"map iteration order can reach results in determinism-critical package %q: %s; "+
						"iterate sorted keys, fold commutatively, or annotate //viewplan:nondet-ok <reason>",
					pass.Pkg.Name(), b.why)
				return true
			})
		})
	}
	return nil
}

// sortedSinks collects the objects passed (at any nesting depth) to a
// sorting call anywhere in body, with the call position: a slice
// appended to under a map range is order-safe if it is sorted
// afterwards. Sorting calls are the sort and slices packages plus
// package-local helpers named sort* (the cq package keeps a
// dependency-free sortVars, for example).
type sortedSink struct{ pos token.Pos }

func sortedSinks(info *types.Info, body *ast.BlockStmt) map[types.Object][]sortedSink {
	out := make(map[types.Object][]sortedSink)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			switch pkgPathOf(info, fun.X) {
			case "sort", "slices":
			default:
				return true
			}
		case *ast.Ident:
			if !strings.HasPrefix(fun.Name, "sort") {
				return true
			}
			if _, isFunc := info.Uses[fun].(*types.Func); !isFunc {
				return true
			}
		default:
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						out[obj] = append(out[obj], sortedSink{pos: call.Pos()})
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// benignChecker decides whether a map-range body is order-independent.
// why records the first reason it is not, for the diagnostic.
type benignChecker struct {
	info   *types.Info
	sums   map[*types.Func]*analysis.Summary
	sorted map[types.Object][]sortedSink
	loop   *ast.RangeStmt
	// mutated is the set of objects assigned anywhere in the loop body
	// (excluding the range variables and iteration-locals): guard
	// conditions reading these make iteration order observable
	// (e.g. `if len(out) < cap { out = append(out, k) }`).
	mutated map[types.Object]bool
	locals  map[types.Object]bool
	why     string
}

func (b *benignChecker) rangeOK(rs *ast.RangeStmt) bool {
	b.mutated = make(map[types.Object]bool)
	b.locals = make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := b.info.Defs[id]; obj != nil {
				b.locals[obj] = true
			}
		}
	}
	b.collectMutated(rs.Body)
	return b.stmtsOK(rs.Body.List)
}

func (b *benignChecker) collectMutated(body *ast.BlockStmt) {
	mark := func(e ast.Expr) {
		if id := rootIdent(b.info, e); id != nil {
			if obj := b.info.Uses[id]; obj != nil {
				b.mutated[obj] = true
			} else if obj := b.info.Defs[id]; obj != nil {
				b.locals[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(s.X)
		}
		return true
	})
}

func (b *benignChecker) fail(why string, _ ast.Node) bool {
	if b.why == "" {
		b.why = why
	}
	return false
}

func (b *benignChecker) stmtsOK(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !b.stmtOK(s) {
			return false
		}
	}
	return true
}

func (b *benignChecker) stmtOK(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		return b.assignOK(st)
	case *ast.IncDecStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && isBuiltin(b.info, id, "delete") {
				return true // builtin delete: set subtraction commutes
			}
			if b.setInsertByRangeKey(call) {
				return true // other.Add(k): set insert keyed by the range key
			}
		}
		return b.fail("body calls a function whose effects may depend on iteration order", s)
	case *ast.IfStmt:
		return b.ifOK(st)
	case *ast.BlockStmt:
		return b.stmtsOK(st.List)
	case *ast.RangeStmt:
		// A nested range over a slice (or a further map, which is
		// checked on its own) stays benign if its body is.
		return b.stmtsOK(st.Body.List)
	case *ast.ForStmt:
		if st.Init != nil && !b.stmtOK(st.Init) {
			return false
		}
		if st.Post != nil && !b.stmtOK(st.Post) {
			return false
		}
		return b.stmtsOK(st.Body.List)
	case *ast.BranchStmt:
		if st.Tok == token.CONTINUE {
			return true
		}
		return b.fail("break/goto makes the surviving iterations depend on order", s)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if !isConstantResult(b.info, r) {
				return b.fail("early return carries iteration-dependent values", s)
			}
		}
		return true // `return true`-style existence checks commute
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return b.fail("unrecognized declaration in loop body", s)
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return b.fail("unrecognized declaration in loop body", s)
			}
			for _, v := range vs.Values {
				if b.impureCall(v) {
					return b.fail("loop-local initializer calls an impure or order-sensitive function", s)
				}
			}
		}
		return true
	default:
		return b.fail("statement form the analyzer cannot prove order-independent", s)
	}
}

// assignOK accepts commutative updates: op-assignments, idempotent
// constant stores, append-to-later-sorted-slice, writes into a map
// keyed by the range key, and call-free iteration-local definitions.
func (b *benignChecker) assignOK(st *ast.AssignStmt) bool {
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN:
		return true
	case token.DEFINE:
		for _, rhs := range st.Rhs {
			if b.impureCall(rhs) {
				return b.fail("iteration-local := calls an impure or order-sensitive function", st)
			}
		}
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := b.info.Defs[id]; obj != nil {
					b.locals[obj] = true
				}
			}
		}
		return true
	case token.ASSIGN:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return b.fail("multi-assignment the analyzer cannot prove order-independent", st)
		}
		lhs, rhs := st.Lhs[0], st.Rhs[0]
		// append feeding a slice sorted after the loop.
		if id, ok := lhs.(*ast.Ident); ok {
			if call, ok := rhs.(*ast.CallExpr); ok {
				if fid, ok := call.Fun.(*ast.Ident); ok && isBuiltin(b.info, fid, "append") {
					obj := b.info.Uses[id]
					if obj == nil {
						obj = b.info.Defs[id]
					}
					for _, sink := range b.sorted[obj] {
						if sink.pos > b.loop.End() {
							return true
						}
					}
					return b.fail("appends to a slice that is not sorted after the loop", st)
				}
			}
			if b.locals[b.info.Uses[id]] {
				// Reassigning an iteration-local is iteration-private.
				if b.impureCall(rhs) {
					return b.fail("iteration-local assignment calls an impure or order-sensitive function", st)
				}
				return true
			}
			if isConstantResult(b.info, rhs) {
				return true // x = true / x = 0: idempotent across iterations
			}
		}
		// m2[k] = v: transferring under the same key commutes.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if b.indexedByRangeKey(ix) {
				if b.impureCall(rhs) {
					// Allow m2[k] = append(m2[k], …): still keyed by k.
					if call, ok := rhs.(*ast.CallExpr); ok {
						if fid, ok := call.Fun.(*ast.Ident); ok && isBuiltin(b.info, fid, "append") {
							return true
						}
					}
					return b.fail("map transfer value calls an impure or order-sensitive function", st)
				}
				return true
			}
			return b.fail("indexed store not keyed by the range key", st)
		}
		return b.fail("assignment the analyzer cannot prove order-independent", st)
	default:
		return b.fail("assignment operator is not commutative", st)
	}
}

// rangeKeyObj resolves the object of the loop's key variable (defined
// by := or reusing an outer variable), or nil.
func (b *benignChecker) rangeKeyObj() types.Object {
	keyID, ok := b.loop.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return nil
	}
	if obj := b.info.Defs[keyID]; obj != nil {
		return obj
	}
	return b.info.Uses[keyID]
}

// indexedByRangeKey reports whether ix indexes a (non-loop-mutated)
// container by exactly the range key variable.
func (b *benignChecker) indexedByRangeKey(ix *ast.IndexExpr) bool {
	key := b.rangeKeyObj()
	if key == nil {
		return false
	}
	id, ok := ix.Index.(*ast.Ident)
	return ok && b.info.Uses[id] == key
}

// setInsertByRangeKey matches `set.Add(k)`: a single-argument method
// named Add on a map-backed receiver, called with exactly the range
// key. Map keys are distinct, so the inserts commute.
func (b *benignChecker) setInsertByRangeKey(call *ast.CallExpr) bool {
	key := b.rangeKeyObj()
	if key == nil || len(call.Args) != 1 {
		return false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok || b.info.Uses[id] != key {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" {
		return false
	}
	selection := b.info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return false
	}
	recv := selection.Recv()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	_, isMap := recv.Underlying().(*types.Map)
	return isMap
}

// ifOK accepts min/max folds, lazy container initialization, and guards
// whose conditions cannot read loop-mutated state.
func (b *benignChecker) ifOK(st *ast.IfStmt) bool {
	if b.minMaxFold(st) {
		return true
	}
	if b.lazyInitOK(st) {
		return true
	}
	if st.Init != nil {
		as, ok := st.Init.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || !b.assignOK(as) {
			return b.fail("if-init the analyzer cannot prove order-independent", st)
		}
	}
	if b.condReadsMutated(st.Cond) {
		return b.fail("guard condition reads state mutated by the loop, so which iterations fire depends on order", st)
	}
	if !b.stmtsOK(st.Body.List) {
		return false
	}
	if st.Else != nil {
		return b.stmtOK(st.Else)
	}
	return true
}

// minMaxFold matches `if E op V { V = E }` (op in < > <= >=), the
// commutative extremum fold. Multi-statement bodies (argmax with a
// tie-broken witness) do not match: ties make the witness
// order-dependent.
func (b *benignChecker) minMaxFold(st *ast.IfStmt) bool {
	if st.Init != nil || st.Else != nil || len(st.Body.List) != 1 {
		return false
	}
	cond, ok := st.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	as, ok := st.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	tgt, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	matches := func(v, e ast.Expr) bool {
		vid, ok := v.(*ast.Ident)
		return ok && b.info.Uses[vid] != nil &&
			b.info.Uses[vid] == b.info.Uses[tgt] && sameExpr(e, as.Rhs[0])
	}
	return matches(cond.X, cond.Y) || matches(cond.Y, cond.X)
}

// lazyInitOK matches the first-touch container initializer
//
//	if x == nil { x = make(…) }
//
// which commutes: whichever iteration arrives first installs the same
// empty container. The initializer must be a make/new builtin or a
// composite literal (so every iteration would build the identical
// value), with call-free arguments.
func (b *benignChecker) lazyInitOK(st *ast.IfStmt) bool {
	if st.Init != nil || st.Else != nil || len(st.Body.List) != 1 {
		return false
	}
	cond, ok := st.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL {
		return false
	}
	target := cond.X
	switch {
	case isConstantResult(b.info, cond.Y):
		// x == nil (or x == 0): target is the left side.
	case isConstantResult(b.info, cond.X):
		target = cond.Y
	default:
		return false
	}
	as, ok := st.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	if !sameExpr(as.Lhs[0], target) {
		return false
	}
	switch rhs := as.Rhs[0].(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := rhs.Fun.(*ast.Ident); ok && (isBuiltin(b.info, id, "make") || isBuiltin(b.info, id, "new")) {
			for _, arg := range rhs.Args[1:] {
				if b.impureCall(arg) {
					return false
				}
			}
			return true
		}
	}
	return false
}

// condReadsMutated reports whether e mentions an object assigned inside
// the loop body (other than iteration-locals).
func (b *benignChecker) condReadsMutated(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := b.info.Uses[id]; obj != nil && b.mutated[obj] && !b.locals[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isConstantResult reports whether e is a compile-time constant
// (literal, true/false, iota-derived) or nil: values identical from
// every iteration.
func isConstantResult(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok {
		if tv.Value != nil || tv.IsNil() {
			return true
		}
	}
	return false
}

// impureCall reports whether e contains a call the analyzer cannot
// prove order-independent. Conversions and the pure builtins (len, cap,
// min, max, append) always pass; other calls pass when the
// interprocedural summary proves the callee pure (or it is a
// sync/atomic Load method) *and* the call's operands don't read
// loop-mutated state — a pure function of loop-invariant or key-derived
// inputs returns the same value from every iteration order.
func (b *benignChecker) impureCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if b.info.Types[call.Fun].IsType() {
			return !found // conversion
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "len", "cap", "min", "max", "append":
				if isBuiltin(b.info, id, id.Name) {
					return !found
				}
			}
		}
		pure := analysis.IsAtomicLoad(b.info, call)
		if !pure && b.sums != nil {
			if cs := b.sums[analysis.CalleeOf(b.info, call)]; cs != nil && cs.Pure {
				pure = true
			}
		}
		if pure && !b.condReadsMutated(call) {
			return !found
		}
		found = true
		return false
	})
	return found
}

// sameExpr compares two expressions structurally on the small grammar
// min/max folds use (identifiers, selectors, indexes, literals).
func sameExpr(a, bx ast.Expr) bool {
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := bx.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.SelectorExpr:
		y, ok := bx.(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && sameExpr(x.X, y.X)
	case *ast.IndexExpr:
		y, ok := bx.(*ast.IndexExpr)
		return ok && sameExpr(x.X, y.X) && sameExpr(x.Index, y.Index)
	case *ast.BasicLit:
		y, ok := bx.(*ast.BasicLit)
		return ok && x.Kind == y.Kind && x.Value == y.Value
	case *ast.CallExpr:
		y, ok := bx.(*ast.CallExpr)
		if !ok || len(x.Args) != len(y.Args) || !sameExpr(x.Fun, y.Fun) {
			return false
		}
		for i := range x.Args {
			if !sameExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *ast.ParenExpr:
		return sameExpr(x.X, bx)
	default:
		return false
	}
}
