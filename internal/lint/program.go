package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-module view the interprocedural analyzers
// (determinism-taint, and the cross-function parts of lock-discipline) run
// over: every function body of every loaded package, indexed by a stable
// string key, plus the taint summaries computed over the resulting call
// graph.
//
// Functions are keyed by strings rather than *types.Func identity because
// each root package is type-checked independently (the stdlib source
// importer re-checks shared dependencies per load), so the object for
// server.CacheKey seen from internal/server is not the object seen from a
// package importing it. The key format is
//
//	"import/path.FuncName"          package-level functions
//	"(import/path.TypeName).Method" methods, pointer receivers stripped
//
// which is identity enough for a call graph and lets sources, sinks, and
// sanitizers be configured as plain strings.
type Program struct {
	fns map[string]*progFunc
	// summaries holds the converged taint summaries; built lazily by the
	// determinism-taint analyzer and cached for every package's pass.
	summaries map[string]*taintSummary
}

// progFunc is one function body the program has source for.
type progFunc struct {
	key  string
	decl *ast.FuncDecl
	pkg  *Package
}

// NewProgram indexes the function declarations of the given packages. The
// same Program is passed to every per-package analysis pass, which is what
// lets taint flow across package boundaries.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{fns: make(map[string]*progFunc)}
	for _, pkg := range pkgs {
		if pkg == nil || pkg.TypesInfo == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := FuncKey(obj)
				if key == "" {
					continue
				}
				// First declaration wins; duplicate keys can only come from
				// loading the same directory twice.
				if _, dup := p.fns[key]; !dup {
					p.fns[key] = &progFunc{key: key, decl: fd, pkg: pkg}
				}
			}
		}
	}
	return p
}

// Len returns the number of indexed function bodies.
func (p *Program) Len() int { return len(p.fns) }

// sortedKeys returns the function keys in deterministic order, so fixpoint
// iteration (and therefore via-chain construction) never depends on map
// order.
func (p *Program) sortedKeys() []string {
	keys := make([]string, 0, len(p.fns))
	for k := range p.fns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FuncKey renders the stable string key of a function or method object.
func FuncKey(f *types.Func) string {
	if f == nil {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		name := recvTypeName(recv.Type())
		if name == "" {
			return ""
		}
		return "(" + name + ")." + f.Name()
	}
	if f.Pkg() == nil {
		return "" // builtins such as error.Error
	}
	return f.Pkg().Path() + "." + f.Name()
}

// recvTypeName renders "import/path.TypeName" for a receiver type, stripping
// pointers and type-argument lists (Tree[*Cell] → Tree), so a
// method on any instantiation of a generic type gets one key.
func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	return obj.Pkg().Path() + "." + name
}

// calleeKey resolves a call expression to the key of its callee. ok is
// false for calls through function-typed variables and for type
// conversions; interface-method calls resolve to a key naming the interface
// type (useful for sink/sanitizer matching) but have no body in the index.
func calleeKey(info *types.Info, call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return FuncKey(f), true
		}
	case *ast.SelectorExpr:
		// Method call or field-selected function value.
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				// The selection's receiver may be more precise than the
				// method's declared receiver (embedding); use the method's
				// own receiver for a stable key.
				return FuncKey(f), true
			}
			return "", false // field holding a func value
		}
		// Package-qualified: pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return FuncKey(f), true
		}
	}
	return "", false
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// callReceiver returns the receiver expression of a method call, or nil for
// ordinary function calls.
func callReceiver(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return sel.X
	}
	return nil
}
