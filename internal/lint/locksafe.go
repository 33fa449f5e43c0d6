package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"viewplan/internal/lint/analysis"
)

// LockSafe enforces the stripe discipline: the striped PlanCache is
// deadlock-free only because no code path ever holds two stripe locks
// at once (stripes are acquired hash-order-free, so two holders in
// opposite order would deadlock). Generally: while a mutex owned by
// some struct type T is held, acquiring another mutex owned by the same
// type — directly or through any package-local callee, discovered via
// the interprocedural Locks summary — is flagged. Acquiring the *same*
// mutex twice (including RLock-then-Lock on one RWMutex, a guaranteed
// self-deadlock under a waiting writer) is flagged by the same rule.
// Goroutine bodies are excluded: a `go` statement's locks are taken
// concurrently, not while the spawning frame holds its own. Neither
// `go vet` nor -race sees this class: it deadlocks only when two
// holders meet in opposite order.
//
// By-value copies of lock-bearing structs are not this analyzer's
// business: `go vet`'s copylocks flags them, _test.go files included.
var LockSafe = &analysis.Analyzer{
	Name:     "locksafe",
	Doc:      "flags a second same-owner (stripe) lock acquisition while one is held",
	Suppress: "lock-ok",
	Run:      runLockSafe,
}

func runLockSafe(pass *analysis.Pass) error {
	_, sums := pass.Interproc()
	info := pass.TypesInfo
	for _, f := range pass.Files {
		funcBodies(f, func(node ast.Node, body *ast.BlockStmt) {
			checkLockIntervals(pass, sums, info, body)
		})
	}
	return nil
}

// lockEvent is one lock operation (or summarized callee) at a source
// position, collected in position order for a straight-line scan.
type lockEvent struct {
	pos         token.Pos
	owner       string // LockCall owner key ("" = unidentifiable storage)
	mutexExpr   string
	acquire     bool
	release     bool
	calleeLocks []string // sorted owner keys a callee may acquire
	calleeName  string
}

func checkLockIntervals(pass *analysis.Pass, sums map[*types.Func]*analysis.Summary, info *types.Info, body *ast.BlockStmt) {
	parents := analysis.Parents(body)
	skip := func(n ast.Node) bool {
		// Locks inside nested function literals or `go` statements are
		// not held by this frame at this position.
		for p := n; p != nil && p != body; p = parents[p] {
			switch p.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return true
			}
		}
		return false
	}
	deferred := func(n ast.Node) bool {
		for p := n; p != nil && p != body; p = parents[p] {
			if _, ok := p.(*ast.DeferStmt); ok {
				return true
			}
		}
		return false
	}

	var events []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || skip(call) {
			return true
		}
		if owner, mutexExpr, acquire, _, isLock := analysis.LockCall(info, call); isLock {
			if !acquire && deferred(call) {
				// defer mu.Unlock(): the interval runs to function end.
				return true
			}
			events = append(events, lockEvent{
				pos: call.Pos(), owner: owner, mutexExpr: mutexExpr,
				acquire: acquire, release: !acquire,
			})
			return true
		}
		callee := analysis.CalleeOf(info, call)
		if cs := sums[callee]; cs != nil && len(cs.Locks) > 0 && !deferred(call) {
			keys := make([]string, 0, len(cs.Locks))
			for k := range cs.Locks {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			events = append(events, lockEvent{
				pos: call.Pos(), calleeLocks: keys, calleeName: callee.Name(),
			})
		}
		return true
	})
	if len(events) == 0 {
		return
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	// Straight-line scan: held maps mutex expression → owner key.
	type held struct {
		owner     string
		mutexExpr string
	}
	var holding []held
	heldOwner := func(owner string) (held, bool) {
		if owner == "" {
			return held{}, false
		}
		for _, h := range holding {
			if h.owner == owner {
				return h, true
			}
		}
		return held{}, false
	}
	for _, ev := range events {
		switch {
		case ev.acquire:
			if h, ok := heldOwner(ev.owner); ok {
				pass.Reportf(ev.pos,
					"acquiring %s while %s is already held: two %s locks at once violate the stripe discipline (deadlock under opposite order)",
					ev.mutexExpr, h.mutexExpr, ev.owner)
			} else {
				// Same storage re-locked (local or unidentifiable owner).
				for _, h := range holding {
					if h.mutexExpr == ev.mutexExpr {
						pass.Reportf(ev.pos, "re-acquiring %s while it is already held: self-deadlock", ev.mutexExpr)
					}
				}
			}
			holding = append(holding, held{owner: ev.owner, mutexExpr: ev.mutexExpr})
		case ev.release:
			for i := len(holding) - 1; i >= 0; i-- {
				if holding[i].mutexExpr == ev.mutexExpr {
					holding = append(holding[:i], holding[i+1:]...)
					break
				}
			}
		default: // summarized callee
			for _, k := range ev.calleeLocks {
				if h, ok := heldOwner(k); ok {
					pass.Reportf(ev.pos,
						"calling %s, which may acquire a %s lock, while %s is held: stripe-discipline violation through the call graph",
						ev.calleeName, k, h.mutexExpr)
				}
			}
		}
	}
}
