// Package lint implements dynaqlint, the repo's determinism and invariant
// linter. The simulator's core guarantee — fault timelines and experiment
// results are a pure function of (scenario, seed) and replay byte-identically
// — is enforced at runtime by the internal/faults guardrail; this package
// enforces it at the source level, flagging the Go constructs that silently
// break replay before any scenario can trip over them:
//
//   - determinism:     wall-clock reads (time.Now/Since/Until) and the global
//     math/rand source, whose state is shared and unseeded.
//   - map-order:       map iteration whose body performs ordering-sensitive
//     side effects (event scheduling, result-slice appends without a later
//     sort, channel sends, float accumulation).
//   - float-eq:        == / != between floating-point operands (threshold
//     T_i arithmetic must not branch on exact float identity).
//   - guard-invariant: mutation of occupancy/threshold fields of the
//     invariant-owning packages from outside their accessor methods.
//   - parallel-state:  worker goroutines / trial functions (go statements,
//     RunTrials, RunSeeds) capturing a *sim.Simulator, *rand.Rand, or
//     telemetry *Run from an enclosing scope — per-trial engine state must
//     be built inside the trial (shared-nothing parallelism).
//   - determinism-taint: interprocedural — nondeterminism sources (wall
//     clock, global rand, map-iteration order, %p, os.Environ) flowing
//     transitively, through any number of helper calls, into determinism
//     sinks (server.CacheKey, telemetry artifact writers, event scheduling
//     times). Values drawn through the injected fleet.Clock interface are
//     clean by construction.
//   - lock-discipline: fields annotated "guarded by <mu>" accessed without
//     the named mutex held, and goroutine-spawning / lease-mutating
//     functions missing a context.Context parameter.
//   - units-consistency: arithmetic mixing internal/units dimensions
//     (bytes vs sim-time vs rate) or comparing a dimensioned value against
//     a raw non-zero literal.
//
// Everything is built on the stdlib go/parser, go/ast, go/types and
// go/importer packages; dynaqlint adds no module dependencies.
//
// Legitimate violations are suppressed with a directive comment on the same
// line or the line directly above:
//
//	start := time.Now() //dynaqlint:allow determinism progress timing only
//
// The reason is mandatory: a suppression without a justification is itself
// reported.
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
	return []*Analyzer{Determinism, MapOrder, FloatEq, GuardInvariant, ParallelState,
		DeterminismTaint, LockDiscipline, UnitsConsistency}
}

// Config tunes the analyzers for the tree being linted.
type Config struct {
	// GuardedPackages lists import paths whose struct fields hold audited
	// invariant state (port occupancy, DynaQ thresholds, pool accounting).
	// guard-invariant flags any write to a field of a type declared in one
	// of these packages when the write happens in a different package.
	GuardedPackages []string
	// ParallelSharedTypes lists "import/path.TypeName" entries whose
	// pointer types worker goroutines and trial functions must never
	// capture from an enclosing scope (parallel-state).
	ParallelSharedTypes []string
	// StrictTimePackages lists import paths held to the stricter fleet
	// timing rule: beyond wall-clock reads, every stdlib timer primitive
	// (time.Sleep, time.After, time.Tick, time.NewTimer, time.NewTicker,
	// time.AfterFunc) is flagged, because retry-backoff and lease-expiry
	// decisions there must flow through the injected fleet.Clock to stay
	// replayable under a manual clock.
	StrictTimePackages []string
	// TaintSources maps function keys ("time.Now",
	// "(dynaq/internal/fleet.WallClock).Now") to source descriptions for
	// determinism-taint. nil means the built-in default set.
	TaintSources map[string]string
	// TaintSinks maps function keys to sink descriptions; a tainted value
	// reaching an argument of one of these calls is a finding. An empty
	// map disables the analyzer.
	TaintSinks map[string]string
	// TaintSanitizers lists function keys whose return values are always
	// considered clean regardless of inputs (e.g. a hash of a sorted copy).
	TaintSanitizers []string
	// LockCheckedPackages lists import paths where lock-discipline runs:
	// "guarded by <mu>" field annotations are enforced, and functions that
	// spawn goroutines or call lease/queue mutators must accept a
	// context.Context.
	LockCheckedPackages []string
	// LockMutatorKeys lists function keys treated as lease/queue mutators
	// by lock-discipline's context rule.
	LockMutatorKeys []string
	// UnitsPackages lists import paths declaring dimensioned numeric types
	// (internal/units); units-consistency classifies those types into
	// dimensions by name and flags cross-dimension arithmetic.
	UnitsPackages []string
}

// DefaultConfig is the configuration for this repository: the packages that
// own Σ T_i == B, occupancy, and shared-pool accounting.
func DefaultConfig() Config {
	return Config{
		GuardedPackages: []string{
			"dynaq/internal/core",
			"dynaq/internal/buffer",
			"dynaq/internal/netsim",
		},
		ParallelSharedTypes: []string{
			"dynaq/internal/sim.Simulator",
			"dynaq/internal/telemetry.Run",
			"math/rand.Rand",
		},
		StrictTimePackages: []string{
			"dynaq/internal/fleet",
			// The fair queue is pure bookkeeping under its caller's lock:
			// time.Time flows in as parameters, never from a clock read, so
			// a deterministic test can replay any dispatch interleaving.
			"dynaq/internal/fairq",
			// The coordinator core takes every instant as an op argument; it
			// is pure bookkeeping like the two above (no mutex of its own, so
			// it is not lock-checked — purity_test.go forbids it one).
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
		TaintSinks: map[string]string{
			"dynaq/internal/server.CacheKey":                   "content-addressed cache key",
			"dynaq/internal/telemetry.Hash":                    "scenario/artifact hash",
			"(dynaq/internal/telemetry.Run).Event":             "events.jsonl artifact",
			"(dynaq/internal/telemetry.Run).Summarize":         "manifest.json summary",
			"(dynaq/internal/telemetry.EventWriter).Event":     "events.jsonl artifact",
			"(dynaq/internal/sim.Simulator).At":                "event scheduling time",
			"(dynaq/internal/sim.Simulator).After":             "event scheduling time",
			"(dynaq/internal/sim.Simulator).AtCall":            "event scheduling time",
			"(dynaq/internal/sim.Simulator).AfterCall":         "event scheduling time",
			"(dynaq/internal/sim.Simulator).Every":             "event scheduling time",
			"(dynaq/internal/sim.Simulator).Lane":              "event scheduling time",
			"(dynaq/internal/sim.Timer).Reset":                 "event scheduling time",
			"(dynaq/internal/flowsim.Engine).ScheduleArrival":  "flow arrival time",
			"(dynaq/internal/telemetry/trace.Tracer).SimSpan":  "sim-time span timestamp",
			"(dynaq/internal/telemetry/trace.SpanRef).SimSpan": "sim-time span timestamp",
		},
		LockCheckedPackages: []string{
			"dynaq/internal/fleet",
			"dynaq/internal/fairq",
			"dynaq/internal/server",
			"dynaq/internal/telemetry/trace",
		},
		// The coordinator core's mutating ops. The shell (internal/server)
		// is the only caller; the lease table and the fair queue behind
		// them are the core's own and out of the shell's reach.
		LockMutatorKeys: []string{
			"(dynaq/internal/coord.Core).Recover",
			"(dynaq/internal/coord.Core).Start",
			"(dynaq/internal/coord.Core).Drain",
			"(dynaq/internal/coord.Core).Submit",
			"(dynaq/internal/coord.Core).Dispatch",
			"(dynaq/internal/coord.Core).Lease",
			"(dynaq/internal/coord.Core).ClaimLocal",
			"(dynaq/internal/coord.Core).Heartbeat",
			"(dynaq/internal/coord.Core).Complete",
			"(dynaq/internal/coord.Core).LocalDone",
			"(dynaq/internal/coord.Core).Tick",
			"(dynaq/internal/coord.Core).Requeue",
		},
		UnitsPackages: []string{
			"dynaq/internal/units",
		},
	}
}

// Pass carries one analyzer's view of one type-checked package. Prog, when
// non-nil, is the whole-program function index the interprocedural analyzers
// consult; per-package analyzers ignore it.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Config    Config
	Prog      *Program

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
// sorted by position. Malformed directives are reported under the
// "directive" pseudo-analyzer.
func Run(pkg *Package, analyzers []*Analyzer, cfg Config) []Diagnostic {
	return RunWithProgram(pkg, nil, analyzers, cfg)
}

// RunWithProgram is Run with a whole-program function index attached, which
// the interprocedural analyzers (determinism-taint) need to follow calls
// across package boundaries. prog may be nil, degrading those analyzers to
// intra-package resolution of whatever NewProgram indexed from pkg alone.
func RunWithProgram(pkg *Package, prog *Program, analyzers []*Analyzer, cfg Config) []Diagnostic {
	if prog == nil {
		prog = NewProgram([]*Package{pkg})
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Config:    cfg,
			Prog:      prog,
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

// parseDirectives scans every comment for //dynaqlint: directives. It
// returns the set of valid suppressions and a diagnostic per malformed
// directive (unknown verb or analyzer, missing reason).
func parseDirectives(fset *token.FileSet, files []*ast.File, analyzers []*Analyzer) (map[allowKey]bool, []Diagnostic) {
	known := map[string]bool{"all": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	allows := make(map[allowKey]bool)
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
				allows[allowKey{pos.Filename, pos.Line, fields[1]}] = true
			}
		}
	}
	return allows, bad
}

// suppressed reports whether a valid allow directive covers the diagnostic:
// matching analyzer (or "all") on the same line or the line directly above.
func suppressed(allows map[allowKey]bool, d Diagnostic) bool {
	for _, name := range []string{d.Analyzer, "all"} {
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			if allows[allowKey{d.Pos.Filename, line, name}] {
				return true
			}
		}
	}
	return false
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
