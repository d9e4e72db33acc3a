package analysis

import (
	"go/ast"
	"go/types"
)

// commitorderName is the analyzer's name as a constant, usable from its
// own Run/FactGen without an initialization cycle through the var.
const commitorderName = "commitorder"

// CommitorderAnalyzer enforces the commit-before-ack durability rule
// (DESIGN §9): an acknowledgement is the client's licence to forget, so
// no path may reach an ack write without the journal commit that makes
// the acknowledged frames crash-safe. The roles are declared, not
// guessed: //unroller:commitpoint tags the durability step
// ((*Journal).Commit) and //unroller:ackpoint tags the ack write, and
// both tags are exported as package facts so a caller in any package is
// checked against them.
//
// The check is an intra-function must-dataflow on the shared control-flow
// walker (flow.go): "a commit dominates this point" starts false, paths
// join with AND (at branches, breaks, fallthroughs and loop back edges),
// and reaching an ackpoint call consumes the commit (the next ack needs
// its own commit — one Commit cannot license a whole batch of later acks
// after more appends, in a loop or out of one).
// One shape gets special treatment: an if-without-else whose body
// commits and does not ack is a *guarded commit arm* — the
// `if s.journal != nil { s.journal.Commit() }` idiom, where the
// fall-through path has no journal and therefore nothing to commit —
// and counts as committing on both paths.
var CommitorderAnalyzer = &Analyzer{
	Name:    commitorderName,
	Doc:     "require a //unroller:commitpoint call to dominate every //unroller:ackpoint call",
	FactGen: genCommitorderFacts,
	Run:     runCommitorder,
}

// genCommitorderFacts publishes the commitpoint/ackpoint role of every
// tagged function under its *types.Func full name.
func genCommitorderFacts(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			var role string
			switch {
			case pass.Dirs.isCommitpoint(fn):
				role = "commitpoint"
			case pass.Dirs.isAckpoint(fn):
				role = "ackpoint"
			default:
				continue
			}
			if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
				pass.Facts.Set(commitorderName, obj.FullName(), role)
			}
		}
	}
	return nil
}

func runCommitorder(pass *Pass) error {
	funcScopes(pass.Files, func(decl *ast.FuncDecl, _ string, body *ast.BlockStmt) {
		// A tagged function is a role, not a caller under check: the
		// ackpoint's own body is the ack write.
		if decl != nil && body == decl.Body && (pass.Dirs.isCommitpoint(decl) || pass.Dirs.isAckpoint(decl)) {
			return
		}
		w := &commitWalker{}
		w.flow = flow[commitState]{pass: pass, step: w.step, guard: w.guard}
		w.run(body, false)
	})
	return nil
}

// commitState is "a commit dominates this point".
type commitState bool

func (c commitState) clone() commitState             { return c }
func (c commitState) join(o commitState) commitState { return c && o }
func (c commitState) equal(o commitState) bool       { return c == o }

type commitWalker struct {
	flow[commitState]
}

// callRole resolves a call's target against the commitorder facts.
func (w *commitWalker) callRole(call *ast.CallExpr) string {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = w.pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = w.pass.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	role, _ := w.pass.Facts.Get(commitorderName, fn.FullName())
	return role
}

// step processes the calls of one step in source order: commits set the
// state, acks check and consume it.
func (w *commitWalker) step(n ast.Node, committed commitState) commitState {
	inspectScope(n, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		switch w.callRole(call) {
		case "commitpoint":
			committed = true
		case "ackpoint":
			if !committed {
				w.reportf(call.Pos(), "ack write is not dominated by a journal commit on every path (commit-before-ack, DESIGN §9): call the //unroller:commitpoint function first")
			}
			// The ack consumed the commit; a later ack needs a fresh one.
			committed = false
		}
	})
	return committed
}

// guard is the guarded commit arm: an if without else whose body
// commits, acks nothing and falls through counts as committing on the
// path that skips it too — its condition decides whether there is
// anything to commit at all.
func (w *commitWalker) guard(ifs *ast.IfStmt, body, skipped commitState) commitState {
	if skipped || !body {
		return skipped
	}
	acks := false
	inspectScope(ifs.Body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && w.callRole(call) == "ackpoint" {
			acks = true
		}
	})
	return commitState(!acks)
}
