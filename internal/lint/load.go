package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
	// TypeErrors collects type-checking problems. Analysis still runs —
	// go/types records partial information — but callers should surface
	// them: diagnostics on code that does not compile are best-effort.
	TypeErrors []error
}

// Loader type-checks packages against the compiler export data of the
// packages Load listed. One Loader shares a FileSet and an importer across
// loads, so each dependency's export data is read once.
type Loader struct {
	Fset     *token.FileSet
	Importer types.Importer
}

// listedPackage is the part of a `go list -json` record Load reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Module     *struct{ Main bool }
	Error      *struct{ Err string }
}

// Load runs `go list -e -export -deps -json` on patterns in dir and
// type-checks every listed package of the main module from source, against
// its dependencies' compiler export data. The go tool expands the patterns,
// applies build constraints, skips testdata directories and maps directories
// to import paths; a package it cannot list or compile is an error. Test
// files are excluded on purpose: the determinism rules govern simulator
// code, while tests routinely (and legitimately) use literal-seeded
// generators and exhaustive map iteration.
//
// The packages come back sorted by directory. The Loader imports every
// listed package, dependencies included, so LoadFiles can type-check more
// files against them.
func Load(dir string, patterns ...string) (*Loader, []*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-json", "--"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	exports := make(map[string]string)
	var own []listedPackage
	var errs []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("lint: go list output: %w", err)
		}
		switch {
		case p.Error != nil:
			errs = append(errs, strings.TrimSpace(p.Error.Err))
		case !p.DepOnly && p.Module != nil && p.Module.Main:
			own = append(own, p)
		}
		exports[p.ImportPath] = p.Export
	}
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("lint: %s", strings.Join(errs, "\n"))
	}

	fset := token.NewFileSet()
	l := &Loader{Fset: fset, Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exports[path])
	})}
	sort.Slice(own, func(i, j int) bool { return own[i].Dir < own[j].Dir })
	pkgs := make([]*Package, 0, len(own))
	for _, p := range own {
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		pkgs = append(pkgs, l.LoadFiles(p.Dir, p.ImportPath, files))
	}
	return l, pkgs, nil
}

// LoadFiles type-checks an already-parsed file set as importPath. It is the
// hook the self-tests use to inject synthetic files (e.g. a time.Now call
// planted into internal/sim) without touching the tree.
func (l *Loader) LoadFiles(dir, importPath string, files []*ast.File) *Package {
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		TypesInfo: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	conf := types.Config{
		Importer: l.Importer,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, pkg.TypesInfo) // errors land in TypeErrors
	pkg.Types = tpkg
	return pkg
}
