// Package lint implements dynaqlint, the repo's determinism linter. The
// simulator's core guarantee — fault timelines and experiment results are a
// pure function of (scenario, seed) and replay byte-identically — is checked
// dynamically by the goldens, the run-twice `diff -r` CI steps, -race and the
// internal/faults guardrail. This package holds the four source-level checks
// that a seeded-mutation audit (DESIGN.md, "Static analysis") showed nothing
// dynamic catches, or catches only some of the time:
//
//   - determinism: wall-clock reads (time.Now/Since/Until), host and
//     environment reads (os.Hostname/Getpid/Getenv/...), the global math/rand
//     source, and raw stdlib timers in the strict-time packages.
//   - map-order: map iteration whose body performs ordering-sensitive side
//     effects (event scheduling, result-slice appends without a later sort,
//     channel sends, float accumulation).
//   - float-eq: == / != between floating-point operands (threshold T_i
//     arithmetic must not branch on exact float identity).
//   - units-consistency: casts between internal/units dimensions (bytes vs
//     sim-time vs rate), raw +/- on absolute sim-times, and a dimensioned
//     value compared against a raw non-zero literal.
//
// Everything is built on the stdlib go/parser, go/ast, go/types and
// go/importer packages; dynaqlint adds no module dependencies. Load asks
// `go list -export` for the packages: the go tool expands patterns, applies
// build constraints and compiles every dependency, and each listed package
// is type-checked from source against that export data. The go command on
// PATH must therefore be the toolchain that built the linter, which `go run`
// guarantees.
//
// Legitimate violations are suppressed with a directive comment on the same
// line or the line directly above:
//
//	start := time.Now() //dynaqlint:allow determinism progress timing only
//
// The reason is mandatory: a suppression without a justification is itself
// reported, and so is one that suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the classic file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one source-level check. Run inspects the files of a Pass and
// reports findings through Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns every analyzer dynaqlint ships, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, MapOrder, FloatEq, UnitsConsistency}
}

// Config tunes the analyzers for the tree being linted.
type Config struct {
	// StrictTimePackages lists import paths held to the stricter fleet
	// timing rule: beyond wall-clock reads, every stdlib timer primitive
	// (time.Sleep, time.After, time.Tick, time.NewTimer, time.NewTicker,
	// time.AfterFunc) is flagged, because retry-backoff and lease-expiry
	// decisions there must flow through the injected fleet.Clock to stay
	// replayable under a manual clock.
	StrictTimePackages []string
	// UnitsPackages lists import paths declaring dimensioned numeric types
	// (internal/units); units-consistency classifies those types into
	// dimensions by name and flags cross-dimension arithmetic.
	UnitsPackages []string
}

// DefaultConfig is the configuration for this repository.
func DefaultConfig() Config {
	return Config{
		StrictTimePackages: []string{
			"dynaq/internal/fleet",
			// The fair queue is pure bookkeeping under its caller's lock:
			// time.Time flows in as parameters, never from a clock read, so
			// a deterministic test can replay any dispatch interleaving.
			"dynaq/internal/fairq",
			// The coordinator core takes every instant as an op argument; it
			// is pure bookkeeping like the two above.
			"dynaq/internal/coord",
			"dynaq/internal/server",
			"dynaq/internal/telemetry/trace",
			// The fluid engine derives every event time from simulated
			// quantities; a stdlib timer here would silently break the
			// byte-identical cache contract for flow-engine cells.
			"dynaq/internal/flowsim",
			// The fabric graph sits under flowsim and under the packet
			// wiring: its link order and paths must stay pure functions of
			// the shape, never of a clock.
			"dynaq/internal/fabric",
		},
		UnitsPackages: []string{
			"dynaq/internal/units",
		},
	}
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Config    Config

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over a loaded package, applies the suppression
// directives found in its files, and returns the surviving diagnostics
// sorted by position. Malformed directives, and well-formed ones that
// suppress nothing, are reported under the "directive" pseudo-analyzer.
func Run(pkg *Package, analyzers []*Analyzer, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Config:    cfg,
			diags:     &diags,
		}
		a.Run(pass)
	}

	allows, bad := parseDirectives(pkg.Fset, pkg.Files, analyzers)
	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(allows, d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, bad...)
	for key, a := range allows {
		if !a.used {
			kept = append(kept, Diagnostic{
				Pos:      a.pos,
				Analyzer: "directive",
				Message:  fmt.Sprintf("dynaqlint:allow %s suppresses nothing on this line or the next; remove it", key.analyzer),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// allowKey identifies a suppression site: one analyzer on one line of one
// file.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allow is one valid suppression: where it stands, and whether any
// diagnostic met it.
type allow struct {
	pos  token.Position
	used bool
}

// parseDirectives scans every comment for //dynaqlint: directives. It
// returns the set of valid suppressions and a diagnostic per malformed
// directive (unknown verb or analyzer, missing reason).
func parseDirectives(fset *token.FileSet, files []*ast.File, analyzers []*Analyzer) (map[allowKey]*allow, []Diagnostic) {
	known := map[string]bool{"all": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	allows := make(map[allowKey]*allow)
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "directive",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "dynaqlint:") {
					continue
				}
				rest := strings.TrimPrefix(text, "dynaqlint:")
				fields := strings.Fields(rest)
				if len(fields) == 0 || fields[0] != "allow" {
					report(c.Pos(), "unknown dynaqlint directive %q (only \"allow\" is supported)", rest)
					continue
				}
				if len(fields) < 2 || !known[fields[1]] {
					names := make([]string, 0, len(known))
					for n := range known {
						names = append(names, n)
					}
					sort.Strings(names)
					report(c.Pos(), "dynaqlint:allow needs an analyzer name (one of %s)", strings.Join(names, ", "))
					continue
				}
				if len(fields) < 3 {
					report(c.Pos(), "dynaqlint:allow %s needs a reason explaining why the site is legitimate", fields[1])
					continue
				}
				pos := fset.Position(c.Pos())
				allows[allowKey{pos.Filename, pos.Line, fields[1]}] = &allow{pos: pos}
			}
		}
	}
	return allows, bad
}

// suppressed reports whether a valid allow directive covers the diagnostic:
// matching analyzer (or "all") on the same line or the line directly above.
// Every directive that covers it is marked used.
func suppressed(allows map[allowKey]*allow, d Diagnostic) bool {
	hit := false
	for _, name := range []string{d.Analyzer, "all"} {
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			if a := allows[allowKey{d.Pos.Filename, line, name}]; a != nil {
				a.used = true
				hit = true
			}
		}
	}
	return hit
}

// pkgFuncCall resolves call to a selector on an imported package and, when
// that package's path is one of paths, returns the function name selected.
// Shadowed identifiers (a local variable named rand) do not match, because
// resolution goes through the type-checker's Uses map.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, paths ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	for _, p := range paths {
		if pn.Imported().Path() == p {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// rootIdent digs through parens, indexing, slicing, stars and field
// selection to the leftmost identifier of an lvalue-ish expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}
