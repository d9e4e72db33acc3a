package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadlineAnalyzer enforces the deadline-armed I/O rule in
// internal/collectorsvc (PR 5's hardening contract): every read or write
// that can touch a socket must be dominated by a SetReadDeadline /
// SetWriteDeadline arm in the same scope, so a silent or stalled peer is
// reaped by the kernel timer instead of parking a goroutine and its
// buffers forever. The kill-recover and chaosnet e2e suites observe the
// symptom (a wedged connection) when fault timing cooperates; this check
// proves the arm is on every path.
//
// Socket I/O is recognized in two forms: a method call on any value
// whose type satisfies net.Conn (Read/Write), and — because the
// collector always wraps its conns — operations on bufio readers and
// writers constructed from a conn, including passing such a
// reader/writer to a helper (ReadFrameBuffered(br) is a conn read). Arming
// is tracked as a per-scope must-dominate dataflow: branches merge with
// AND, and each function literal starts un-armed (a closure cannot rely
// on its creator having armed the conn at some earlier time — deadlines
// are absolute points in time and must be re-armed near the I/O they
// bound). For the same reason an arm made before a loop covers only its
// first iteration: a loop body is entered in the pre-loop state AND the
// state the body itself leaves on every path back to the loop head, so
// I/O in a later iteration needs an arm inside the body — ahead of it in
// the same iteration, or behind it on every path to the next one.
var DeadlineAnalyzer = &Analyzer{
	Name: "deadline",
	Doc:  "require SetRead/SetWriteDeadline to dominate every conn read/write in collectorsvc",
	Run:  runDeadline,
}

// deadlinePkgs are the packages under the deadline-armed I/O contract.
// The collector service and the cluster membership layer both speak
// TCP with peers that may stall at any point; the chaosnet fault
// injector deliberately manipulates raw conns and the emulator has no
// sockets at all. (The lockscope contract needs no such list — it runs
// on every package.)
var deadlinePkgs = map[string]bool{
	"collectorsvc": true,
	"cluster":      true,
}

func runDeadline(pass *Pass) error {
	if !deadlinePkgs[pkgBase(pass.PkgPath)] {
		return nil
	}
	connIface := netConnInterface(pass)
	if connIface == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// Taint is resolved per top-level function: bufio wrappers are
			// identified by their construction site, and the objects are
			// shared with every closure in the body (Info.Uses resolves a
			// captured identifier to the same object).
			taint := connBufWrappers(pass, fn.Body, connIface)
			w := &deadlineWalker{pass: pass, conn: connIface, taint: taint}
			w.walkStmts(fn.Body.List, &armState{})
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					w.walkStmts(lit.Body.List, &armState{})
				}
				return true
			})
		}
	}
	return nil
}

// connBufWrappers finds `r := bufio.NewReader(conn)`-style constructions
// over net.Conn values and returns the wrapped objects with their role.
func connBufWrappers(pass *Pass, body *ast.BlockStmt, connIface *types.Interface) map[types.Object]string {
	taint := make(map[types.Object]string)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			name, ok := pkgFuncCall(pass, call, "bufio")
			if !ok {
				continue
			}
			var role string
			switch name {
			case "NewReader", "NewReaderSize":
				role = "reader"
			case "NewWriter", "NewWriterSize":
				role = "writer"
			default:
				continue
			}
			if t := pass.Info.TypeOf(call.Args[0]); t == nil || !types.Implements(t, connIface) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := identObject(pass, id); obj != nil {
					taint[obj] = role
				}
			}
		}
		return true
	})
	return taint
}

func identObject(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// armState is the must-armed dataflow value at one program point.
type armState struct {
	read, write bool
}

func (a *armState) clone() *armState { c := *a; return &c }

// and merges an alternative branch: armed only if armed on both.
func (a *armState) and(b *armState) {
	a.read = a.read && b.read
	a.write = a.write && b.write
}

type deadlineWalker struct {
	pass  *Pass
	conn  *types.Interface
	taint map[types.Object]string
	// quiet > 0 while a loop body is walked only to learn what it arms:
	// findings are reported by the walk that starts from the true entry
	// state.
	quiet int
	// continues collects the arm state at each unlabeled continue of the
	// innermost loop body being walked.
	continues *[]armState
}

// reportf reports a finding unless the walk is a quiet pre-pass.
func (w *deadlineWalker) reportf(pos token.Pos, format string, args ...any) {
	if w.quiet == 0 {
		w.pass.Reportf(pos, format, args...)
	}
}

// loopEntry is the arm state at the head of every iteration of a loop
// entered in state pre: pre AND the state the body, started un-armed,
// leaves on every path back to the loop head (falling off its end or
// continuing). A deadline armed before the loop has passed by some
// later iteration, so only the body's own arms carry around the back
// edge. Labeled continues are not tracked; none target an outer loop
// in the packages under this contract.
func (w *deadlineWalker) loopEntry(body *ast.BlockStmt, pre *armState) *armState {
	self := &armState{}
	w.quiet++
	backEdges, fellThrough := w.walkLoopBody(body, self)
	w.quiet--
	entry := pre.clone()
	if fellThrough {
		entry.and(self)
	}
	for i := range backEdges {
		entry.and(&backEdges[i])
	}
	return entry
}

// walkLoopBody walks one iteration from st, returning the arm states at
// the body's continues and whether it can fall off its end (st then
// holds the end state).
func (w *deadlineWalker) walkLoopBody(body *ast.BlockStmt, st *armState) ([]armState, bool) {
	var continues []armState
	outer := w.continues
	w.continues = &continues
	term := w.walkStmts(body.List, st)
	w.continues = outer
	return continues, !term
}

func (w *deadlineWalker) walkStmts(stmts []ast.Stmt, st *armState) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *deadlineWalker) walkStmt(stmt ast.Stmt, st *armState) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, st)
		}
		return true
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE && s.Label == nil && w.continues != nil {
			*w.continues = append(*w.continues, *st)
		}
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.scanExpr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := w.walkStmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			*st = *thenSt
			st.and(elseSt)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		// The condition runs at the head of every iteration.
		entry := w.loopEntry(s.Body, st)
		if s.Cond != nil {
			w.scanExpr(s.Cond, entry)
		}
		w.walkLoopBody(s.Body, entry)
		// The loop may run zero times: whatever the body armed does not
		// count downstream.
	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		w.walkLoopBody(s.Body, w.loopEntry(s.Body, st))
	case *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
		w.walkBranchBodies(stmt, st)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.GoStmt, *ast.DeferStmt:
		// Function literals inside are walked as their own scopes by the
		// caller; a bare `defer conn.Close()` has no deadline obligation.
	default:
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if e, ok := n.(ast.Expr); ok {
				w.scanCall(e, st)
			}
			return true
		})
	}
	return false
}

// walkBranchBodies forks st per case clause and re-merges with AND.
func (w *deadlineWalker) walkBranchBodies(stmt ast.Stmt, st *armState) {
	var clauses []ast.Stmt
	switch s := stmt.(type) {
	case *ast.SelectStmt:
		clauses = s.Body.List
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, st)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		clauses = s.Body.List
	}
	merged := st.clone()
	first := true
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			body = cc.Body
		case *ast.CommClause:
			body = cc.Body
		default:
			continue
		}
		caseSt := st.clone()
		if !w.walkStmts(body, caseSt) {
			if first {
				merged = caseSt
				first = false
			} else {
				merged.and(caseSt)
			}
		}
	}
	if !first {
		*st = *merged
	}
}

// scanExpr inspects one expression subtree for conn I/O and arming,
// skipping nested function literals.
func (w *deadlineWalker) scanExpr(expr ast.Expr, st *armState) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			w.scanCall(e, st)
		}
		return true
	})
}

// scanCall classifies one expression node: arming flips the state, I/O
// checks it.
func (w *deadlineWalker) scanCall(e ast.Expr, st *armState) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if recvT := w.pass.Info.TypeOf(sel.X); recvT != nil && types.Implements(recvT, w.conn) {
			switch sel.Sel.Name {
			case "SetDeadline":
				st.read, st.write = true, true
				return
			case "SetReadDeadline":
				st.read = true
				return
			case "SetWriteDeadline":
				st.write = true
				return
			case "Read":
				if !st.read {
					w.reportf(call.Pos(), "conn read not dominated by SetReadDeadline in this scope: a silent peer parks this goroutine forever")
				}
				return
			case "Write":
				if !st.write {
					w.reportf(call.Pos(), "conn write not dominated by SetWriteDeadline in this scope: a stalled peer parks this goroutine forever")
				}
				return
			}
		}
		// bufio wrapper method on a conn-backed reader/writer.
		if id, ok := sel.X.(*ast.Ident); ok {
			if role, tainted := w.taint[identObject(w.pass, id)]; tainted {
				switch role {
				case "reader":
					switch sel.Sel.Name {
					case "Read", "ReadByte", "ReadRune", "ReadString", "ReadBytes", "ReadSlice", "Peek", "Discard":
						if !st.read {
							w.reportf(call.Pos(), "read from conn-backed bufio.Reader %s not dominated by SetReadDeadline in this scope", id.Name)
						}
						return
					}
				case "writer":
					switch sel.Sel.Name {
					case "Write", "WriteByte", "WriteRune", "WriteString", "Flush", "ReadFrom":
						if !st.write {
							w.reportf(call.Pos(), "write to conn-backed bufio.Writer %s not dominated by SetWriteDeadline in this scope", id.Name)
						}
						return
					}
				}
			}
		}
	}
	// A conn-backed reader/writer handed to a helper is that helper doing
	// the I/O on our behalf (ReadFrameBuffered(br), writeAck(bw, ...)).
	for _, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		switch w.taint[identObject(w.pass, id)] {
		case "reader":
			if !st.read {
				w.reportf(call.Pos(), "call passes conn-backed bufio.Reader %s without SetReadDeadline dominating it in this scope", id.Name)
			}
		case "writer":
			if !st.write {
				w.reportf(call.Pos(), "call passes conn-backed bufio.Writer %s without SetWriteDeadline dominating it in this scope", id.Name)
			}
		}
	}
}
