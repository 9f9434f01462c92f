package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ParallelState enforces the shared-nothing contract of the parallel trial
// harness (experiment.RunTrials): a worker goroutine or trial function must
// own its whole simulation world. Capturing a *sim.Simulator, a *rand.Rand,
// or a telemetry *Run from an enclosing scope hands the same mutable,
// single-goroutine object to concurrent trials — a data race that, even
// when it does not crash, silently destroys (scenario, seed) determinism.
//
// The check inspects every function literal that is either launched in a
// `go` statement or passed to a trial runner (RunTrials, RunSeeds) and
// flags free variables whose type is a pointer to one of the configured
// shared-state types. State created inside the literal is per-trial and
// never flagged.
var ParallelState = &Analyzer{
	Name: "parallel-state",
	Doc:  "flag worker goroutines and trial functions capturing per-trial engine state (Simulator, rand.Rand, telemetry.Run) from an enclosing scope",
	Run:  runParallelState,
}

// trialRunnerNames are the harness entry points whose function-literal
// arguments execute on worker goroutines.
var trialRunnerNames = map[string]bool{
	"RunTrials": true,
	"RunSeeds":  true,
}

func runParallelState(p *Pass) {
	banned := make(map[string]bool, len(p.Config.ParallelSharedTypes))
	for _, t := range p.Config.ParallelSharedTypes {
		banned[t] = true
	}
	if len(banned) == 0 {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
					checkCaptures(p, lit, "worker goroutine", banned)
				}
			case *ast.CallExpr:
				if !isTrialRunnerCall(x) {
					return true
				}
				for _, arg := range x.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkCaptures(p, lit, "trial function", banned)
					}
				}
			}
			return true
		})
	}
}

// isTrialRunnerCall matches calls to RunTrials/RunSeeds whether spelled as a
// bare identifier (same package), a package selector (experiment.RunTrials),
// or a generic instantiation (RunTrials[int]).
func isTrialRunnerCall(call *ast.CallExpr) bool {
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		return trialRunnerNames[fn.Name]
	case *ast.SelectorExpr:
		return trialRunnerNames[fn.Sel.Name]
	}
	return false
}

// checkCaptures reports each free variable of lit whose type is a pointer to
// a banned shared-state type. A variable is free when its declaration lies
// outside the literal's source range — parameters and locals of the literal
// are per-trial by construction.
func checkCaptures(p *Pass, lit *ast.FuncLit, context string, banned map[string]bool) {
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if declaredWithin(v.Pos(), lit) {
			return true
		}
		name, bad := bannedPointerType(v.Type(), banned)
		if !bad {
			return true
		}
		seen[v] = true
		p.Reportf(id.Pos(), "%s captures shared %s %q from an enclosing scope; build per-trial state inside the function (shared-nothing trials)", context, name, v.Name())
		return true
	})
}

func declaredWithin(pos token.Pos, lit *ast.FuncLit) bool {
	return pos >= lit.Pos() && pos <= lit.End()
}

// bannedPointerType reports whether t is a pointer to a named type listed in
// the banned set (keys are "import/path.TypeName").
func bannedPointerType(t types.Type, banned map[string]bool) (string, bool) {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	full := obj.Pkg().Path() + "." + obj.Name()
	if !banned[full] {
		return "", false
	}
	return "*" + full, true
}
