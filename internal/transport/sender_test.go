package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestOneSenderPerPeer parses the package and pins who puts frames on a
// link: the backend's Send is called in one place, the flusher's pass, which
// only the flusher's goroutine runs; and nothing the receive path or the ack
// timer runs — handlePacket, handleFrame, ackTimerFire and every function
// they call, though not a goroutine they start — calls the backend or sends
// on a channel other than as a case of a select with a default (a nudge that
// never blocks).
func TestOneSenderPerPeer(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := make(map[string]*ast.FuncDecl)
	for _, f := range pkgs["transport"].Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				funcs[fn.Name.Name] = fn
			}
		}
	}
	if funcs["handleFrame"] == nil || funcs["flush"] == nil || funcs["runFlusher"] == nil {
		t.Fatal("the check is not looking at the package")
	}

	// calls lists the calls a function makes on its own goroutine: a go
	// statement's arguments are evaluated here, its function is not run here.
	calls := func(fn *ast.FuncDecl) []*ast.CallExpr {
		var out []*ast.CallExpr
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				for _, arg := range n.Call.Args {
					ast.Inspect(arg, visit)
				}
				return false
			case *ast.CallExpr:
				out = append(out, n)
			}
			return true
		}
		ast.Inspect(fn, visit)
		return out
	}
	// callee names the package function or method a call runs, if any.
	callee := func(call *ast.CallExpr) string {
		switch f := call.Fun.(type) {
		case *ast.Ident:
			return f.Name
		case *ast.SelectorExpr:
			if types.ExprString(f.X) != "t.ep" {
				return f.Sel.Name
			}
		}
		return ""
	}

	var senders, passCallers []string
	for name, fn := range funcs {
		for _, call := range calls(fn) {
			if types.ExprString(call.Fun) == "t.ep.Send" {
				senders = append(senders, name)
			}
			if callee(call) == "flush" {
				passCallers = append(passCallers, name)
			}
		}
	}
	if !slices.Equal(senders, []string{"flush"}) {
		t.Errorf("t.ep.Send is called by %v, want once, by the flusher's pass (flush)", senders)
	}
	if !slices.Equal(passCallers, []string{"runFlusher"}) {
		t.Errorf("flush is called by %v, want once, by runFlusher", passCallers)
	}

	seen := map[string]bool{}
	queue := []string{"handlePacket", "handleFrame", "ackTimerFire"}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		fn := funcs[name]
		if seen[name] || fn == nil {
			continue
		}
		seen[name] = true
		for _, call := range calls(fn) {
			if strings.HasPrefix(types.ExprString(call.Fun), "t.ep.") {
				t.Errorf("%s: %s, reachable from the receive path or the ack timer, calls the backend", fset.Position(call.Pos()), name)
			}
			queue = append(queue, callee(call))
		}
		nudges := map[ast.Stmt]bool{}
		ast.Inspect(fn, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok || !slices.ContainsFunc(sel.Body.List, func(c ast.Stmt) bool { return c.(*ast.CommClause).Comm == nil }) {
				return true
			}
			for _, c := range sel.Body.List {
				if comm := c.(*ast.CommClause).Comm; comm != nil {
					nudges[comm] = true
				}
			}
			return true
		})
		ast.Inspect(fn, func(n ast.Node) bool {
			if s, ok := n.(*ast.SendStmt); ok && !nudges[s] {
				t.Errorf("%s: %s, reachable from the receive path or the ack timer, may block on a channel send", fset.Position(s.Pos()), name)
			}
			return true
		})
	}
	if !seen["wake"] {
		t.Error("the receive path no longer wakes the flusher: the check has lost its way")
	}
}
