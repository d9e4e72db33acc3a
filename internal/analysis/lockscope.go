package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockscopeAnalyzer enforces the collector stack's two mutex rules:
//
//  1. No mutex is held across a blocking operation — channel send or
//     receive, blocking select, net.Conn I/O, (*os.File).Sync, or
//     time.Sleep. A goroutine parked on a socket while holding the
//     journal mutex stalls every ingest shard; the chaos e2e suite only
//     catches that when the fault injector happens to wedge the right
//     connection, this analyzer catches it on every build.
//  2. Every Lock/RLock is paired with an Unlock/RUnlock or a defer on
//     all paths out of the function — a return with the mutex held is
//     reported at the return, a fallthrough leak at the Lock.
//
// The check is intra-procedural and runs on the shared control-flow
// walker (flow.go): held sets fork at if/switch/select, carry through
// break, continue, fallthrough and loop back edges, and re-merge
// conservatively (a mutex held on any path counts as held after the
// join). Each function literal is its own scope — a closure's
// Lock/Unlock discipline is judged where the closure is written, since
// the analyzer cannot see when it runs. Two conventions keep the check
// precise: a `defer mu.Unlock()` satisfies
// pairing but the mutex still counts as held for rule 1 (that is exactly
// the (*Journal).Close sync-under-lock case), and methods following the
// repo's "Locked" suffix convention take no visible Lock and are
// therefore invisible here — their callers are the ones checked.
var LockscopeAnalyzer = &Analyzer{
	Name: "lockscope",
	Doc:  "forbid blocking operations under a held mutex and unbalanced Lock/Unlock paths",
	Run:  runLockscope,
}

func runLockscope(pass *Pass) error {
	funcScopes(pass.Files, func(_ *ast.FuncDecl, name string, body *ast.BlockStmt) {
		w := &lockWalker{fname: name}
		w.flow = flow[lockState]{pass: pass, step: w.step, exit: w.exit}
		w.run(body, make(lockState))
	})
	return nil
}

// heldLock is one mutex the walk believes is currently held.
type heldLock struct {
	pos      token.Pos // the Lock() call
	deferred bool      // a defer Unlock covers every exit path
}

// lockState is the held-mutex set at one program point, keyed by the
// rendered receiver expression ("j.mu", "c.wr.mu").
type lockState map[string]*heldLock

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		hl := *v
		c[k] = &hl
	}
	return c
}

// join folds another path into s: a mutex held on either path is held
// after the join (conservative for rule 1), and a defer only counts if
// both paths had it (conservative for rule 2).
func (s lockState) join(other lockState) lockState {
	for k, o := range other {
		if mine, ok := s[k]; ok {
			mine.deferred = mine.deferred && o.deferred
		} else {
			hl := *o
			s[k] = &hl
		}
	}
	return s
}

func (s lockState) equal(other lockState) bool {
	if len(s) != len(other) {
		return false
	}
	for k, hl := range s {
		if o, ok := other[k]; !ok || o.deferred != hl.deferred {
			return false
		}
	}
	return true
}

type lockWalker struct {
	flow[lockState]
	fname string
}

func (w *lockWalker) step(n ast.Node, st lockState) lockState {
	switch n := n.(type) {
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if key, method, ok := syncMutexOp(w.pass, call); ok {
				switch method {
				case "Lock", "RLock":
					st[key] = &heldLock{pos: call.Pos()}
				case "Unlock", "RUnlock":
					delete(st, key)
				}
				return st
			}
		}
	case *ast.SendStmt:
		w.reportBlocking(n.Arrow, "channel send", st)
	case *ast.SelectStmt:
		// The select is its communications: without default it blocks.
		for _, c := range n.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return st
			}
		}
		w.reportBlocking(n.Pos(), "select without default", st)
	case *ast.DeferStmt:
		// A deferred Unlock, direct or inside a deferred literal,
		// satisfies pairing; the mutex still counts as held for rule 1.
		ast.Inspect(n.Call, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, method, ok := syncMutexOp(w.pass, call); ok && (method == "Unlock" || method == "RUnlock") {
					if hl, held := st[key]; held {
						hl.deferred = true
					}
				}
			}
			return true
		})
	}
	w.checkBlocking(n, st)
	return st
}

// exit reports every mutex a path leaves the function holding without a
// deferred Unlock: at the return, or at the Lock when the path falls off
// the end of the body.
func (w *lockWalker) exit(ret *ast.ReturnStmt, st lockState) {
	for key, hl := range st {
		switch {
		case hl.deferred:
		case ret != nil:
			w.reportf(ret.Pos(), "return in %s with %s still held (Lock at line %d has no Unlock or defer Unlock on this path)",
				w.fname, key, w.pass.Fset.Position(hl.pos).Line)
		default:
			w.reportf(hl.pos, "%s.Lock() in %s is not released on every path (no Unlock or defer Unlock before fallthrough return)", key, w.fname)
		}
	}
}

// checkBlocking scans one step for blocking operations.
func (w *lockWalker) checkBlocking(n ast.Node, st lockState) {
	if len(st) == 0 {
		return
	}
	inspectScope(n, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportBlocking(n.Pos(), "channel receive", st)
			}
		case *ast.CallExpr:
			if desc, ok := blockingCall(w.pass, n); ok {
				w.reportBlocking(n.Pos(), desc, st)
			}
		}
	})
}

func (w *lockWalker) reportBlocking(pos token.Pos, desc string, st lockState) {
	for key, hl := range st {
		w.reportf(pos, "%s in %s while %s is held (Lock at line %d): blocking under a mutex stalls every waiter",
			desc, w.fname, key, w.pass.Fset.Position(hl.pos).Line)
	}
}

// syncMutexOp recognizes mu.Lock/Unlock/RLock/RUnlock calls on
// sync.Mutex/RWMutex (including embedded, promoted ones), returning the
// rendered receiver expression as the mutex key.
func syncMutexOp(pass *Pass, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// blockingCall classifies calls that can park the goroutine.
func blockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if name, ok := pkgFuncCall(pass, call, "time"); ok && name == "Sleep" {
		return "time.Sleep", true
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	fn, isFn := pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "os":
		if fn.Name() == "Sync" {
			return "(*os.File).Sync", true
		}
	case "net":
		switch fn.Name() {
		case "Read", "Write", "ReadFrom", "WriteTo", "Accept":
			return "net." + fn.Name(), true
		}
	}
	// Conn I/O through a wrapper type (chaosnet.Conn, a fixture fake):
	// a Read/Write method on any type satisfying net.Conn blocks.
	switch sel.Sel.Name {
	case "Read", "Write":
		if iface := netConnInterface(pass); iface != nil {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil &&
				types.Implements(recv.Type(), iface) {
				return "net.Conn " + sel.Sel.Name, true
			}
		}
	}
	return "", false
}

// netConnInterface returns the net.Conn interface type if this package
// (directly) imports net, else nil.
func netConnInterface(pass *Pass) *types.Interface {
	if pass.Pkg == nil {
		return nil
	}
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == "net" {
			if obj := imp.Scope().Lookup("Conn"); obj != nil {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
		}
	}
	return nil
}
