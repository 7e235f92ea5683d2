package msg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestUnsafeHasOneHome parses the module and pins where its aliasing lives:
// no non-test file outside this package imports unsafe, and here it is used
// only inside the two conversions — view (string to read-only bytes) and
// frozen (given-up bytes to string) — that the decoder's and the getters'
// ownership rules are stated on. Anything else that wants to alias a buffer
// goes through them, where the rule can be read.
func TestUnsafeHasOneHome(t *testing.T) {
	helpers := map[string]bool{"view": true, "frozen": true}
	const root = "../.."
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // build and tool directories, not the module's source
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := false
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				imports = true
			}
		}
		if !imports {
			return nil
		}
		if rel, _ := filepath.Rel(root, path); filepath.ToSlash(filepath.Dir(rel)) != "internal/msg" {
			t.Errorf("%s imports unsafe; only internal/msg may", rel)
			return nil
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && helpers[fn.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "unsafe" {
						t.Errorf("%s uses unsafe.%s outside view and frozen", fset.Position(sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
