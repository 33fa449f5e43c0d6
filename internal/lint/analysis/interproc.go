// interproc.go grows the framework from per-function AST walks into a
// package-local interprocedural engine: a lightweight call graph over
// the package's FuncDecls, per-function effect summaries computed to a
// fixpoint (purity, pooled-value release and return, fresh-copy
// construction, lock acquisition), and block-structure-aware def-use
// ordering. It is deliberately source-level and package-local — no SSA,
// no cross-package propagation — because that is the granularity the
// concurrency invariants live at: a pooled frame, a copy-on-write
// catalog, or a stripe lock never escapes its package un-exported
// without crossing an API boundary the analyzers treat as publication.
//
// The summaries are approximate in documented ways. Pure is a
// conservative must-property (any unrecognized call or nonlocal write
// poisons it); Releases/ReturnsPooled/Locks are may-properties that
// grow monotonically during the fixpoint; ReturnsFresh is a
// must-property that starts optimistic and only decays. Goroutine
// bodies (`go` statements) are excluded from lock summaries — they run
// concurrently with the caller, so a lock acquired there is not held at
// the call site — and function-literal bodies are summarized as part of
// their enclosing declaration.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FuncNode is one declared function or method in the package.
type FuncNode struct {
	// Obj is the function's types object (the call-graph key).
	Obj *types.Func
	// Decl is the syntax, always with a non-nil Body.
	Decl *ast.FuncDecl
	// Params lists the value parameters, receiver first for methods, so
	// call-site arguments line up with Releases/fresh-param indices.
	Params []*types.Var
}

// CallGraph indexes a package's function declarations.
type CallGraph struct {
	// Nodes is in file/source order (deterministic iteration).
	Nodes []*FuncNode
	// ByObj resolves a static callee to its node, nil for externals.
	ByObj map[*types.Func]*FuncNode
}

// BuildCallGraph collects every FuncDecl with a body.
func BuildCallGraph(files []*ast.File, info *types.Info) *CallGraph {
	g := &CallGraph{ByObj: make(map[*types.Func]*FuncNode)}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			n := &FuncNode{Obj: obj, Decl: fd}
			sig, _ := obj.Type().(*types.Signature)
			if sig == nil {
				continue
			}
			if r := sig.Recv(); r != nil {
				n.Params = append(n.Params, r)
			}
			for i := 0; i < sig.Params().Len(); i++ {
				n.Params = append(n.Params, sig.Params().At(i))
			}
			g.Nodes = append(g.Nodes, n)
			g.ByObj[obj] = n
		}
	}
	return g
}

// CalleeOf resolves a call's static callee: a plain function, a method
// on a concrete receiver, or nil for interface calls, function values,
// conversions, and builtins.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// CallArgs returns the expressions flowing into the callee's Params
// slots: the receiver expression first for method calls, then the
// ordinary arguments. The result may be shorter or longer than the
// callee's Params (variadic calls); zip by index.
func CallArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			out = append(out, sel.X)
		}
	}
	return append(out, call.Args...)
}

// Summary is one function's interprocedural effect abstraction.
type Summary struct {
	// Pure: no writes to caller-visible state — no assignments through
	// parameters or package variables, no sends, no calls to impure or
	// unknown functions. Atomic Load methods and non-mutating builtins
	// are whitelisted. Pure functions are safe to call while iterating
	// the very structures they read.
	Pure bool
	// Releases[i]: calling this function may return pooled state rooted
	// at parameter i to its sync.Pool (directly via Put, or through a
	// callee that does). Covers both Put(x) on a parameter and methods
	// like Close that Put a pooled field of their receiver.
	Releases []bool
	// ReturnsPooled: some return path yields a value drawn from a
	// sync.Pool (a Get result, or a callee's pooled return).
	ReturnsPooled bool
	// ReturnsFresh: every return path's first result is a freshly
	// constructed value — composite literal, new(T), a pool checkout, or
	// another ReturnsFresh call — i.e. not yet published to any other
	// goroutine or caller.
	ReturnsFresh bool
	// Locks holds the owner keys (see LockCall) of mutexes this function
	// may acquire, transitively through package-local callees, excluding
	// goroutine bodies.
	Locks map[string]bool
}

func equalSummary(a, b *Summary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Pure != b.Pure || a.ReturnsPooled != b.ReturnsPooled || a.ReturnsFresh != b.ReturnsFresh {
		return false
	}
	if len(a.Releases) != len(b.Releases) || len(a.Locks) != len(b.Locks) {
		return false
	}
	for i := range a.Releases {
		if a.Releases[i] != b.Releases[i] {
			return false
		}
	}
	for k := range a.Locks {
		if !b.Locks[k] {
			return false
		}
	}
	return true
}

// Summarize computes every node's Summary to a fixpoint. Each field is
// monotone in its own direction (Pure and ReturnsFresh only decay,
// Releases/ReturnsPooled/Locks only grow), so iteration terminates.
func Summarize(g *CallGraph, info *types.Info) map[*types.Func]*Summary {
	sums := make(map[*types.Func]*Summary, len(g.Nodes))
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			ns := summarizeOne(n, info, g, sums)
			if !equalSummary(sums[n.Obj], ns) {
				sums[n.Obj] = ns
				changed = true
			}
		}
	}
	return sums
}

// optimistic is the starting assumption for an in-graph callee whose
// summary has not been computed yet (cycles): best-case for the decaying
// properties, empty for the growing ones.
var optimistic = &Summary{Pure: true, ReturnsFresh: true}

func summarizeOne(n *FuncNode, info *types.Info, g *CallGraph, sums map[*types.Func]*Summary) *Summary {
	s := &Summary{
		Pure:     true,
		Releases: make([]bool, len(n.Params)),
		Locks:    make(map[string]bool),
	}
	paramIdx := make(map[types.Object]int, len(n.Params))
	for i, p := range n.Params {
		paramIdx[p] = i
	}
	// A write through a variable the body declares stays in the frame;
	// the receiver, parameters and named results are declared in the
	// signature and alias caller state.
	local := func(obj types.Object) bool {
		return obj != nil && n.Decl.Body.Pos() <= obj.Pos() && obj.Pos() <= n.Decl.Body.End()
	}
	// Rebinding any variable the function declares, signature included,
	// is invisible to the caller.
	rebind := func(obj types.Object) bool {
		return obj != nil && n.Decl.Pos() <= obj.Pos() && obj.Pos() <= n.Decl.End()
	}
	// calleeSummary resolves a package-local callee, optimistically for
	// not-yet-computed nodes; nil means external/unknown.
	calleeSummary := func(f *types.Func) *Summary {
		if f == nil || g.ByObj[f] == nil {
			return nil
		}
		if cs, ok := sums[f]; ok {
			return cs
		}
		return optimistic
	}

	var walk func(node ast.Node, inGo bool)
	walk = func(node ast.Node, inGo bool) {
		ast.Inspect(node, func(nd ast.Node) bool {
			switch x := nd.(type) {
			case *ast.GoStmt:
				// The spawned body's effects happen, so purity still
				// decays below via its statements — but its locks are
				// held concurrently, not by this frame.
				s.Pure = false
				walk(x.Call, true)
				return false
			case *ast.SendStmt:
				s.Pure = false
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if !localWrite(info, lhs, local, rebind) {
						s.Pure = false
					}
				}
			case *ast.IncDecStmt:
				if !localWrite(info, x.X, local, rebind) {
					s.Pure = false
				}
			case *ast.CallExpr:
				summarizeCall(x, info, s, paramIdx, local, calleeSummary, inGo)
			}
			return true
		})
	}
	walk(n.Decl.Body, false)

	summarizeReturns(n, info, s, calleeSummary)
	return s
}

// localWrite reports whether assigning through lhs only touches state
// local to the function: rebinding a variable it declares (a parameter
// included — the caller never sees it), or a field/element chain
// rooted at a variable its body declares. A chain rooted at the
// receiver, a parameter, a named result, a package variable or an
// unresolvable root is caller-visible. The blank identifier is local by
// definition.
func localWrite(info *types.Info, lhs ast.Expr, local, rebind func(types.Object) bool) bool {
	if id, ok := unparen(lhs).(*ast.Ident); ok {
		return id.Name == "_" || rebind(identObj(info, id))
	}
	root := BaseIdent(lhs)
	// A chain through a genuinely local variable may still alias, but
	// treating it as local is the useful approximation.
	return root != nil && local(identObj(info, root))
}

// summarizeCall folds one call's effects into s.
func summarizeCall(call *ast.CallExpr, info *types.Info, s *Summary,
	paramIdx map[types.Object]int, local func(types.Object) bool,
	calleeSummary func(*types.Func) *Summary, inGo bool) {

	// Conversions have no effects.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "delete", "copy":
				// Mutates its first argument.
				if len(call.Args) > 0 {
					if root := BaseIdent(call.Args[0]); root == nil || !local(info.Uses[root]) {
						s.Pure = false
					}
				}
			case "print", "println":
				s.Pure = false
			}
			return
		}
	}
	if arg, ok := PoolPutArg(info, call); ok {
		s.Pure = false
		if root := BaseIdent(arg); root != nil {
			if i, ok := paramIdx[info.Uses[root]]; ok {
				s.Releases[i] = true
			}
		}
		return
	}
	if IsPoolGet(info, call) {
		s.Pure = false
		return
	}
	if owner, _, acquire, _, ok := LockCall(info, call); ok {
		s.Pure = false
		if acquire && !inGo && owner != "" {
			s.Locks[owner] = true
		}
		return
	}
	if IsAtomicLoad(info, call) {
		return // whitelisted: reads only
	}
	callee := CalleeOf(info, call)
	cs := calleeSummary(callee)
	if cs == nil {
		// External or dynamic: unknown effects.
		s.Pure = false
		return
	}
	if !cs.Pure {
		s.Pure = false
	}
	if !inGo {
		for k := range cs.Locks {
			s.Locks[k] = true
		}
	}
	args := CallArgs(info, call)
	for i, rel := range cs.Releases {
		if !rel || i >= len(args) {
			continue
		}
		if root := BaseIdent(args[i]); root != nil {
			if j, ok := paramIdx[info.Uses[root]]; ok {
				s.Releases[j] = true
			}
		}
	}
}

// summarizeReturns computes ReturnsPooled (may) and ReturnsFresh (must)
// from the body's return statements and a flow-insensitive local
// provenance pass. Returns inside nested function literals belong to
// the literal, not the declaration, and are skipped.
func summarizeReturns(n *FuncNode, info *types.Info, s *Summary, calleeSummary func(*types.Func) *Summary) {
	sig, _ := n.Obj.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() == 0 {
		return
	}
	pooled := make(map[types.Object]bool)
	fresh := make(map[types.Object]bool)
	poisoned := make(map[types.Object]bool) // had a non-fresh def

	isPooled := func(e ast.Expr) bool { return pooledExpr(info, e, pooled, calleeSummary) }
	isFresh := func(e ast.Expr) bool { return freshExpr(info, e, fresh, calleeSummary) }

	// Local provenance to a fixpoint: vars fed only by fresh sources are
	// fresh; vars fed by any pool checkout are pooled.
	for changed := true; changed; {
		changed = false
		forEachAssign(n.Decl.Body, func(lhs []ast.Expr, rhs []ast.Expr) {
			for i, l := range lhs {
				id, ok := unparen(l).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				r := rhs[0]
				if len(rhs) == len(lhs) {
					r = rhs[i]
				}
				if isPooled(r) && !pooled[obj] {
					pooled[obj] = true
					changed = true
				}
				if isFresh(r) {
					if !fresh[obj] && !poisoned[obj] {
						fresh[obj] = true
						changed = true
					}
				} else if !poisoned[obj] {
					poisoned[obj] = true
					if fresh[obj] {
						delete(fresh, obj)
					}
					changed = true
				}
			}
		})
	}

	allFresh := true
	sawReturn := false
	var scan func(node ast.Node)
	scan = func(node ast.Node) {
		ast.Inspect(node, func(nd ast.Node) bool {
			switch x := nd.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				sawReturn = true
				if len(x.Results) == 0 {
					allFresh = false // naked return: unknown provenance
					return true
				}
				if isPooled(x.Results[0]) {
					s.ReturnsPooled = true
				}
				if !isFresh(x.Results[0]) && !isNilExpr(info, x.Results[0]) {
					allFresh = false
				}
			}
			return true
		})
	}
	scan(n.Decl.Body)
	s.ReturnsFresh = sawReturn && allFresh
}

// forEachAssign visits every assignment and var-with-value declaration
// in body, skipping nothing (function literals included — their locals
// share the declaration's provenance maps, which is sound because
// object identity keeps them distinct).
func forEachAssign(body *ast.BlockStmt, visit func(lhs, rhs []ast.Expr)) {
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.AssignStmt:
			if len(x.Rhs) > 0 {
				visit(x.Lhs, x.Rhs)
			}
		case *ast.ValueSpec:
			if len(x.Values) > 0 {
				lhs := make([]ast.Expr, len(x.Names))
				for i, nm := range x.Names {
					lhs[i] = nm
				}
				visit(lhs, x.Values)
			}
		}
		return true
	})
}

// pooledExpr: does e (may-)carry a sync.Pool checkout?
func pooledExpr(info *types.Info, e ast.Expr, pooled map[types.Object]bool, calleeSummary func(*types.Func) *Summary) bool {
	switch x := unparen(e).(type) {
	case *ast.TypeAssertExpr:
		return pooledExpr(info, x.X, pooled, calleeSummary)
	case *ast.Ident:
		return pooled[identObj(info, x)]
	case *ast.CallExpr:
		if IsPoolGet(info, x) {
			return true
		}
		if cs := calleeSummary(CalleeOf(info, x)); cs != nil {
			return cs.ReturnsPooled
		}
	}
	return false
}

// freshExpr: is e certainly a value this function constructed (or
// checked out for exclusive use) rather than one it was handed?
func freshExpr(info *types.Info, e ast.Expr, fresh map[types.Object]bool, calleeSummary func(*types.Func) *Summary) bool {
	switch x := unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, lit := unparen(x.X).(*ast.CompositeLit)
			return lit
		}
	case *ast.TypeAssertExpr:
		return freshExpr(info, x.X, fresh, calleeSummary)
	case *ast.Ident:
		return fresh[identObj(info, x)]
	case *ast.CallExpr:
		if id, ok := unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "new" || b.Name() == "make"
			}
		}
		if IsPoolGet(info, x) {
			return true // exclusive checkout until Put
		}
		if cs := calleeSummary(CalleeOf(info, x)); cs != nil {
			return cs.ReturnsFresh
		}
	}
	return false
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// ---- shared syntactic/type predicates ----

// IsPoolGet reports a sync.Pool Get method call.
func IsPoolGet(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	return isSyncPool(info.Types[sel.X].Type)
}

// PoolPutArg returns the value handed back by a sync.Pool Put call.
func PoolPutArg(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || len(call.Args) != 1 {
		return nil, false
	}
	if !isSyncPool(info.Types[sel.X].Type) {
		return nil, false
	}
	return call.Args[0], true
}

func isSyncPool(t types.Type) bool {
	return namedIn(t, "sync", "Pool")
}

// LockCall classifies a sync.Mutex / sync.RWMutex method call.
//
// owner keys the lock's storage for stripe-discipline reasoning: for a
// mutex held in a struct field (st.mu, c.stripes[i].mu) it is
// "pkg.Type" of the struct — every instance of the type shares the key,
// which is exactly what stripe discipline needs — and for a mutex
// variable it is "var pkg.name" for package-level mutexes or "" for
// locals. mutexExpr is the source text of the mutex operand, used to
// pair a Lock with its Unlock.
func LockCall(info *types.Info, call *ast.CallExpr) (owner, mutexExpr string, acquire, reader bool, ok bool) {
	sel, selOK := unparen(call.Fun).(*ast.SelectorExpr)
	if !selOK {
		return "", "", false, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", "", false, false, false
	}
	reader = strings.HasPrefix(sel.Sel.Name, "R")
	t := info.Types[sel.X].Type
	if t == nil {
		return "", "", false, false, false
	}
	if !namedIn(deref(t), "sync", "Mutex") && !namedIn(deref(t), "sync", "RWMutex") {
		return "", "", false, false, false
	}
	mutexExpr = types.ExprString(sel.X)
	switch x := unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if ot := deref(info.Types[x.X].Type); ot != nil {
			if n, okN := ot.(*types.Named); okN && n.Obj().Pkg() != nil {
				owner = n.Obj().Pkg().Name() + "." + n.Obj().Name()
			}
		}
	case *ast.Ident:
		if v, okV := info.Uses[x].(*types.Var); okV && !v.IsField() && v.Parent() != nil && v.Parent().Parent() == types.Universe {
			owner = "var " + v.Pkg().Name() + "." + v.Name()
		}
	}
	return owner, mutexExpr, acquire, reader, true
}

// IsAtomicLoad reports a Load* method call on one of the sync/atomic
// typed wrappers (atomic.Int64, atomic.Pointer[T], …): a pure read.
func IsAtomicLoad(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Load") {
		return false
	}
	t := deref(info.Types[sel.X].Type)
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "atomic"
}

// BaseIdent unwraps selector, index, slice, star, paren, type-assert,
// and conversion wrappers down to the base identifier, or nil: the
// variable a read or write chain is rooted at.
func BaseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// namedIn reports whether t is the named type pkgName.typeName,
// matching by package *name* so testdata fixtures can stand in for real
// packages (and the real sync/atomic always matches).
func namedIn(t types.Type, pkgName, typeName string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ---- block-structure-aware ordering ----

// Parents maps every node under root to its syntactic parent.
func Parents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// After reports whether pos executes after rel in straight-line order:
// pos follows rel's enclosing statement at whatever block level first
// contains both. Sibling branches of an if/switch/select are *not*
// after each other (only one executes), and positions inside rel itself
// are not after it. Loop back-edges are not modeled: a use textually
// before a release in the same loop body is treated as before it.
func After(parents map[ast.Node]ast.Node, rel ast.Node, pos token.Pos) bool {
	n := rel
	for {
		p := parents[n]
		if p == nil {
			return false
		}
		if p.Pos() <= pos && pos <= p.End() {
			switch pp := p.(type) {
			case *ast.IfStmt, *ast.TypeSwitchStmt, *ast.SwitchStmt, *ast.SelectStmt:
				// pos is in a sibling branch (or the condition).
				return false
			case *ast.BlockStmt:
				// A switch/select body's block holds the case clauses:
				// sibling cases are alternatives, not successors.
				switch parents[pp].(type) {
				case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
					return false
				}
				return pos > n.End()
			default:
				return pos > n.End()
			}
		}
		n = p
	}
}
