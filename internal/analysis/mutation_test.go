package analysis

import (
	"go/ast"
	"testing"
)

// TestCollectorArmsAreLoadBearing pins that the deadline and commitorder
// checks see the collector's real connection code: deleting any one
// deadline arm in Server.handle or Client.stream, or handle's journal
// commit, from the loaded syntax tree must produce a finding, while the
// package as written produces none.
func TestCollectorArmsAreLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks internal/collectorsvc")
	}
	loader, err := NewLoader(moduleRootDir(t))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./internal/collectorsvc")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	pkg := pkgs[0]
	suite := []*Analyzer{DeadlineAnalyzer, CommitorderAnalyzer}
	findings := func(check string) int {
		t.Helper()
		diags, err := RunAnalyzers(pkg, suite)
		if err != nil {
			t.Fatalf("RunAnalyzers: %v", err)
		}
		n := 0
		for _, d := range diags {
			if check == "" || d.Analyzer == check {
				n++
			}
		}
		return n
	}
	if n := findings(""); n != 0 {
		t.Fatalf("unmutated collectorsvc has %d findings", n)
	}

	type site struct {
		fn, call, check string
	}
	mutated := map[site]int{}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || (fn.Name.Name != "handle" && fn.Name.Name != "stream") {
				continue
			}
			for _, list := range stmtLists(fn.Body) {
				for i := 0; i < len(*list); i++ {
					call, check := mutationTarget((*list)[i], fn.Name.Name)
					if call == "" {
						continue
					}
					s := (*list)[i]
					*list = append((*list)[:i:i], (*list)[i+1:]...)
					if findings(check) == 0 {
						t.Errorf("%s: deleting %s at %s leaves %s silent", fn.Name.Name, call, pkg.Fset.Position(s.Pos()), check)
					}
					*list = append((*list)[:i:i], append([]ast.Stmt{s}, (*list)[i:]...)...)
					mutated[site{fn.Name.Name, call, check}]++
				}
			}
		}
	}
	for _, want := range []site{
		{"handle", "SetReadDeadline", "deadline"},
		{"handle", "SetWriteDeadline", "deadline"},
		{"handle", "Commit", "commitorder"},
		{"stream", "SetReadDeadline", "deadline"},
		{"stream", "SetWriteDeadline", "deadline"},
	} {
		if mutated[want] == 0 {
			t.Errorf("no %s statement found in %s to delete", want.call, want.fn)
		}
	}
	if n := findings(""); n != 0 {
		t.Fatalf("restored collectorsvc has %d findings", n)
	}
}

// stmtLists returns every statement list under n, function literals
// included.
func stmtLists(n ast.Node) []*[]ast.Stmt {
	var lists []*[]ast.Stmt
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			lists = append(lists, &n.List)
		case *ast.CaseClause:
			lists = append(lists, &n.Body)
		case *ast.CommClause:
			lists = append(lists, &n.Body)
		}
		return true
	})
	return lists
}

// mutationTarget names the call a statement makes if deleting it must
// trip a check, and which check.
func mutationTarget(s ast.Stmt, fn string) (call, check string) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return "", ""
	}
	ce, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ce.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch name := sel.Sel.Name; {
	case name == "SetReadDeadline" || name == "SetWriteDeadline":
		return name, "deadline"
	case name == "Commit" && fn == "handle":
		return name, "commitorder"
	}
	return "", ""
}
