package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the suite's one model of Go's statement-level control
// flow. lockscope, deadline and commitorder are dataflow checks over one
// function body at a time; each supplies a state type and a few hooks,
// and flow walks the body:
//
//   - if/else forks the state and joins the arms that fall through;
//   - a for or range loop's head state is the join of the state before
//     the loop and every back edge (the end of the body, continue, and a
//     labeled continue aimed at that loop), iterated to a fixpoint before
//     the body is walked once more to report;
//   - break, labeled or not, carries its state to the exit of the
//     statement it targets;
//   - a switch or type switch without default also joins the path where
//     no clause runs, and fallthrough carries a clause's end state into
//     the next clause;
//   - go and defer evaluate their function value and arguments at the
//     statement itself.
//
// goto ends the path it is on; no package under check uses it.

// flowState is one check's dataflow value at a program point.
type flowState[S any] interface {
	// clone returns an independent copy: hooks may mutate the state
	// they are handed.
	clone() S
	// join returns the state where this path meets other. It may reuse
	// the receiver and must not change other.
	join(other S) S
	// equal reports whether two states are the same fact, which ends a
	// loop's fixpoint.
	equal(other S) bool
}

// flow walks one function body for one check.
type flow[S flowState[S]] struct {
	pass *Pass
	// step applies one evaluation step: a simple statement, or an
	// expression the walker evaluates itself (a condition, a switch tag
	// or case, a range operand, a return result, the function value and
	// arguments of a go or defer). A go, defer or select statement is
	// stepped too, after its operands: it stands for the registration or
	// the communication, and inspectScope visits nothing inside it.
	step func(n ast.Node, s S) S
	// exit, if set, sees the state at each function exit: a return after
	// its results, or the end of the body (ret == nil).
	exit func(ret *ast.ReturnStmt, s S)
	// later, if set, maps a loop's head state to the state a later
	// iteration starts from before its own effects; unset, the head state
	// carries over whole.
	later func(S) S
	// guard, if set, gives the state on the path that skips the body of
	// an if without else, from the body's end state when it falls
	// through; unset, that path keeps the state before the if.
	guard func(ifs *ast.IfStmt, body, skipped S) S

	// quiet > 0 while a loop body is walked to find its fixpoint: only
	// the walk from the settled head state reports.
	quiet   int
	targets []*flowTarget[S]
}

// flowTarget is a statement break or continue can leave by, with the
// states that left it so far.
type flowTarget[S any] struct {
	label  string
	loop   bool
	breaks []S
	conts  []S
}

// reportf reports a finding unless a loop's fixpoint is being sought.
func (f *flow[S]) reportf(pos token.Pos, format string, args ...any) {
	if f.quiet == 0 {
		f.pass.Reportf(pos, format, args...)
	}
}

// run walks body from entry.
func (f *flow[S]) run(body *ast.BlockStmt, entry S) {
	if s, live := f.stmts(body.List, entry); live && f.exit != nil {
		f.exit(nil, s)
	}
}

// funcScopes calls visit for every function body in files: each
// declaration, and each function literal wherever it appears, as an
// independent scope. decl is the enclosing declaration (nil for a
// literal outside any function) and name the function's name in
// messages.
func funcScopes(files []*ast.File, visit func(decl *ast.FuncDecl, name string, body *ast.BlockStmt)) {
	for _, file := range files {
		for _, d := range file.Decls {
			decl, _ := d.(*ast.FuncDecl)
			if decl != nil && decl.Body != nil {
				visit(decl, decl.Name.Name, decl.Body)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					visit(decl, "func literal", lit.Body)
				}
				return true
			})
		}
	}
}

// inspectScope visits n's subtree in source order, skipping function
// literals (independent scopes). A go, defer or select statement visits
// nothing: the walker has stepped its operands already.
func inspectScope(n ast.Node, visit func(ast.Node)) {
	switch n.(type) {
	case *ast.GoStmt, *ast.DeferStmt, *ast.SelectStmt:
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// merge joins the states of the paths that meet at one point; the point
// is unreachable when no path does.
func merge[S flowState[S]](paths []S) (S, bool) {
	var s S
	if len(paths) == 0 {
		return s, false
	}
	s = paths[0].clone()
	for _, p := range paths[1:] {
		s = s.join(p)
	}
	return s, true
}

// stmts walks a statement list from s, returning the end state and
// whether the end is reachable.
func (f *flow[S]) stmts(list []ast.Stmt, s S) (S, bool) {
	live := true
	for _, st := range list {
		if s, live = f.stmt(st, "", s); !live {
			break
		}
	}
	return s, live
}

// stmt walks one statement; label is the label it carries, if any.
func (f *flow[S]) stmt(st ast.Stmt, label string, s S) (S, bool) {
	switch st := st.(type) {
	case *ast.LabeledStmt:
		return f.stmt(st.Stmt, st.Label.Name, s)
	case *ast.BlockStmt:
		return f.stmts(st.List, s)
	case *ast.EmptyStmt:
		return s, true
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s = f.step(e, s)
		}
		if f.exit != nil {
			f.exit(st, s)
		}
		return s, false
	case *ast.BranchStmt:
		f.branch(st, s)
		return s, false
	case *ast.GoStmt:
		return f.call(st, st.Call, s), true
	case *ast.DeferStmt:
		return f.call(st, st.Call, s), true
	case *ast.IfStmt:
		return f.ifStmt(st, s)
	case *ast.ForStmt:
		s = f.init(st.Init, s)
		return f.loop(label, s, st.Cond, st.Cond != nil, st.Post, st.Body)
	case *ast.RangeStmt:
		return f.loop(label, f.step(st.X, s), nil, true, nil, st.Body)
	case *ast.SwitchStmt:
		s = f.init(st.Init, s)
		if st.Tag != nil {
			s = f.step(st.Tag, s)
		}
		return f.clauses(label, st, st.Body, s)
	case *ast.TypeSwitchStmt:
		s = f.init(st.Init, s)
		return f.clauses(label, st, st.Body, f.step(st.Assign, s))
	case *ast.SelectStmt:
		return f.clauses(label, st, st.Body, f.step(st, s))
	}
	return f.step(st, s), true
}

// init walks an if, for or switch statement's optional init statement.
func (f *flow[S]) init(st ast.Stmt, s S) S {
	if st != nil {
		s, _ = f.stmt(st, "", s)
	}
	return s
}

// call steps a go or defer statement: the function value and arguments
// are evaluated here, then the statement itself.
func (f *flow[S]) call(st ast.Stmt, call *ast.CallExpr, s S) S {
	s = f.step(call.Fun, s)
	for _, arg := range call.Args {
		s = f.step(arg, s)
	}
	return f.step(st, s)
}

// branch sends s to the statement a break or continue leaves by. goto
// and a stray fallthrough (clauses consumes the real ones) end the path.
func (f *flow[S]) branch(br *ast.BranchStmt, s S) {
	label := ""
	if br.Label != nil {
		label = br.Label.Name
	}
	for i := len(f.targets) - 1; i >= 0; i-- {
		t := f.targets[i]
		switch {
		case label != "" && t.label != label:
		case br.Tok == token.BREAK:
			t.breaks = append(t.breaks, s)
			return
		case br.Tok == token.CONTINUE && t.loop:
			t.conts = append(t.conts, s)
			return
		}
	}
}

func (f *flow[S]) ifStmt(st *ast.IfStmt, s S) (S, bool) {
	s = f.step(st.Cond, f.init(st.Init, s))
	var paths []S
	then, thenLive := f.stmts(st.Body.List, s.clone())
	if thenLive {
		paths = append(paths, then)
	}
	switch {
	case st.Else != nil:
		if els, live := f.stmt(st.Else, "", s); live {
			paths = append(paths, els)
		}
	case thenLive && f.guard != nil:
		paths = append(paths, f.guard(st, then, s))
	default:
		paths = append(paths, s)
	}
	return merge(paths)
}

// push opens a break (and, for a loop, continue) target.
func (f *flow[S]) push(label string, loop bool) *flowTarget[S] {
	t := &flowTarget[S]{label: label, loop: loop}
	f.targets = append(f.targets, t)
	return t
}

func (f *flow[S]) pop() { f.targets = f.targets[:len(f.targets)-1] }

// loop walks a for or range statement entered in state pre. cond is
// evaluated at the head of every iteration, and headExit says the loop
// can end there (it has a condition, or ranges); post runs on every
// back edge.
func (f *flow[S]) loop(label string, pre S, cond ast.Expr, headExit bool, post ast.Stmt, body *ast.BlockStmt) (S, bool) {
	// The fixpoint walks send breaks and labeled continues to enclosing
	// statements from heads that are not final; only the reporting walk's
	// count, so each enclosing target is cut back to its length here.
	outer := make([][2]int, len(f.targets))
	for i, t := range f.targets {
		outer[i] = [2]int{len(t.breaks), len(t.conts)}
	}
	t := f.push(label, true)
	defer f.pop()
	head := pre.clone()
	f.quiet++
	for {
		start := head.clone()
		if f.later != nil {
			start = f.later(start)
		}
		next := []S{pre}
		if _, back, live := f.iteration(t, start, cond, post, body); live {
			next = append(next, back)
		}
		joined, _ := merge(next)
		if joined.equal(head) {
			break
		}
		head = joined
	}
	f.quiet--
	for i, n := range outer {
		f.targets[i].breaks = f.targets[i].breaks[:n[0]]
		f.targets[i].conts = f.targets[i].conts[:n[1]]
	}
	tested, _, _ := f.iteration(t, head, cond, post, body)
	exits := t.breaks
	if headExit {
		exits = append(exits, tested)
	}
	return merge(exits)
}

// iteration walks one pass of a loop from its head state: the condition,
// the body, and post on the back edge. It returns the state after the
// condition and the joined back edge, if any path takes one; t holds the
// pass's breaks.
func (f *flow[S]) iteration(t *flowTarget[S], head S, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt) (tested, back S, live bool) {
	t.breaks, t.conts = nil, nil
	tested = head
	if cond != nil {
		tested = f.step(cond, head)
	}
	if end, live := f.stmts(body.List, tested.clone()); live {
		t.conts = append(t.conts, end)
	}
	if back, live = merge(t.conts); live && post != nil {
		back, _ = f.stmt(post, "", back)
	}
	return tested, back, live
}

// clauses walks the clauses of a switch, type switch or select entered
// in state s (after its tag, or the select itself, was stepped).
func (f *flow[S]) clauses(label string, st ast.Stmt, body *ast.BlockStmt, s S) (S, bool) {
	t := f.push(label, false)
	defer f.pop()
	_, isSelect := st.(*ast.SelectStmt)
	_, isTypeSwitch := st.(*ast.TypeSwitchStmt)
	// Each clause starts after the case expressions evaluated up to and
	// including its own; default, and the path where no clause runs,
	// after all of them. A select always runs one clause.
	starts := make([]S, len(body.List))
	test, noClause, dflt := s, !isSelect, -1
	for i, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				dflt, noClause = i, false
				continue
			}
			if !isTypeSwitch {
				for _, e := range c.List {
					test = f.step(e, test)
				}
			}
			starts[i] = test.clone()
		case *ast.CommClause:
			starts[i] = s.clone()
		}
	}
	if dflt >= 0 {
		starts[dflt] = test.clone()
	}
	var ends []S
	var fall S
	falling := false
	for i, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			list = c.Body
		case *ast.CommClause:
			list = c.Body
		}
		in := starts[i]
		if falling {
			in = in.join(fall)
		}
		n := len(list)
		through := n > 0 && isFallthrough(list[n-1])
		if through {
			list = list[:n-1]
		}
		end, live := f.stmts(list, in)
		falling = through && live
		if falling {
			fall = end
		} else if live {
			ends = append(ends, end)
		}
	}
	if noClause {
		ends = append(ends, test)
	}
	return merge(append(ends, t.breaks...))
}

func isFallthrough(st ast.Stmt) bool {
	br, ok := st.(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}
