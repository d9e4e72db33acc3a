package analysis

import (
	"go/ast"
	"go/types"
)

// DeadlineAnalyzer enforces the deadline-armed I/O rule in
// internal/collectorsvc and internal/cluster: every read or write
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
// is tracked as a per-scope must-dominate dataflow on the shared
// control-flow walker (flow.go): paths join with AND, and each function
// literal starts un-armed (a closure cannot rely
// on its creator having armed the conn at some earlier time — deadlines
// are absolute points in time and must be re-armed near the I/O they
// bound). For the same reason an arm made before a loop covers only its
// first iteration: a loop's head state is the pre-loop state AND the
// state the body, started un-armed, leaves on every path back to the
// head (its end, continue, or a labeled continue from an inner loop), so
// I/O in a later iteration needs an arm inside the body — ahead of it in
// the same iteration, or behind it on every path to the next one.
var DeadlineAnalyzer = &Analyzer{
	Name: "deadline",
	Doc:  "require SetRead/SetWriteDeadline to dominate every conn read/write in collectorsvc and cluster",
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
	funcScopes(pass.Files, func(decl *ast.FuncDecl, _ string, body *ast.BlockStmt) {
		// Taint is resolved per top-level function: bufio wrappers are
		// identified by their construction site, and the objects are
		// shared with every closure in the body (Info.Uses resolves a
		// captured identifier to the same object).
		root := body
		if decl != nil {
			root = decl.Body
		}
		w := &deadlineWalker{conn: connIface, taint: connBufWrappers(pass, root, connIface)}
		// A deadline is an absolute time: one armed before a loop has
		// passed by some later iteration, so only the body's own arms
		// carry around a back edge.
		w.flow = flow[*armState]{pass: pass, step: w.step, later: func(*armState) *armState { return &armState{} }}
		w.run(body, &armState{})
	})
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

// join merges another path: armed only if armed on both.
func (a *armState) join(b *armState) *armState {
	a.read = a.read && b.read
	a.write = a.write && b.write
	return a
}

func (a *armState) equal(b *armState) bool { return *a == *b }

type deadlineWalker struct {
	flow[*armState]
	conn  *types.Interface
	taint map[types.Object]string
}

func (w *deadlineWalker) step(n ast.Node, st *armState) *armState {
	inspectScope(n, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			w.scanCall(call, st)
		}
	})
	return st
}

// scanCall classifies one call: arming flips the state, I/O checks it.
func (w *deadlineWalker) scanCall(call *ast.CallExpr, st *armState) {
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
