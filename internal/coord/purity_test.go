package coord

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// pureImports is everything the core may import: value-only standard
// packages plus the four internal packages it is built from. Anything that
// could touch a file, a socket, a lock, a goroutine or a clock is absent.
var pureImports = map[string]bool{
	"bytes":   true,
	"cmp":     true,
	"errors":  true,
	"fmt":     true,
	"slices":  true,
	"sort":    true,
	"strconv": true,
	"strings": true,
	"time":    true, // for the Time and Duration types; reads are checked below

	"dynaq/internal/fairq":           true,
	"dynaq/internal/fleet":           true,
	"dynaq/internal/telemetry":       true,
	"dynaq/internal/telemetry/trace": true,
}

// clockReads are the time-package functions that read or wait on the wall
// clock. A Now call on anything at all is one too: it would read an
// injected clock.
var clockReads = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// TestCoreIsPure parses the package's non-test sources and fails on an
// import outside pureImports, a go statement, a channel type or operation,
// or a clock read — the core is I/O-free by construction, not convention.
func TestCoreIsPure(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !pureImports[path] {
					t.Errorf("%s imports %q; the core may import only %v", name, path, keys(pureImports))
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement", fset.Position(x.Pos()))
				case *ast.ChanType:
					t.Errorf("%s: channel type", fset.Position(x.Pos()))
				case *ast.SendStmt:
					t.Errorf("%s: channel send", fset.Position(x.Pos()))
				case *ast.SelectStmt:
					t.Errorf("%s: select statement", fset.Position(x.Pos()))
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						t.Errorf("%s: channel receive", fset.Position(x.Pos()))
					}
				case *ast.CallExpr:
					sel, ok := x.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					pkg, _ := sel.X.(*ast.Ident)
					if sel.Sel.Name == "Now" || (pkg != nil && pkg.Name == "time" && clockReads[sel.Sel.Name]) {
						t.Errorf("%s: clock read %s; ops take their instant as an argument", fset.Position(x.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	if files == 0 {
		t.Fatal("parsed no source files")
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
