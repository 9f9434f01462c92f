package lint

import (
	"go/ast"
)

// Determinism flags the stdlib escape hatches that make a simulation run
// depend on something other than (scenario, seed): wall-clock reads, host and
// environment reads, and the process-global math/rand source.
//
// Wall-clock reads (time.Now, time.Since, time.Until) smuggle host timing
// into the run; the simulator has its own virtual clock (sim.Now). Host and
// environment reads (os.Hostname, os.Getpid, os.Getppid, os.Getenv,
// os.LookupEnv, os.Environ) are the one source no run-twice-and-diff check
// sees, because both runs share the host; they are flagged where they are
// called, whatever the value goes on to do. The global math/rand functions
// (rand.Intn, rand.Float64, ...) share one process-wide generator whose state
// depends on everything else that drew from it, so two runs of the same
// scenario diverge. Seeded generators built with
// rand.New(rand.NewSource(seed)) are the sanctioned pattern and are not
// flagged — unless the source is itself seeded from a nondeterministic value
// such as time.Now().UnixNano() or os.Getpid().
//
// Packages listed in Config.StrictTimePackages are additionally held to the
// fleet timing rule: the stdlib timer primitives (time.Sleep, time.After,
// time.Tick, time.NewTimer, time.NewTicker, time.AfterFunc) are banned
// there, because retry-backoff and lease-expiry decisions must flow through
// the injected fleet.Clock — a raw timer would make those paths untestable
// under a manual clock and unreplayable in the chaos harness.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock, host and environment reads, global/unseeded math/rand use, and raw timers in strict-time packages",
	Run:  runDeterminism,
}

// strictTimeFuncs are the stdlib timer primitives banned in strict-time
// packages.
var strictTimeFuncs = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// hostReads are the os functions whose result depends on the machine or on
// the environment the process was started in.
var hostReads = map[string]bool{
	"Hostname":  true,
	"Getpid":    true,
	"Getppid":   true,
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
}

const randPath = "math/rand"

// randConstructors build explicitly-seeded generators; everything else at
// package level draws from the shared global source.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDeterminism(p *Pass) {
	strictTime := false
	for _, path := range p.Config.StrictTimePackages {
		if p.Pkg != nil && p.Pkg.Path() == path {
			strictTime = true
			break
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgFuncCall(p.TypesInfo, call, "time"); ok {
				switch {
				case name == "Now" || name == "Since" || name == "Until":
					p.Reportf(call.Pos(), "wall-clock read time.%s breaks (scenario, seed) replay; use the simulator clock (sim.Now)", name)
				case strictTime && strictTimeFuncs[name]:
					p.Reportf(call.Pos(), "raw timer time.%s in strict-time package %s; lease-expiry and retry timing must flow through the injected fleet.Clock", name, p.Pkg.Path())
				}
				return true
			}
			if name, ok := pkgFuncCall(p.TypesInfo, call, "os"); ok && hostReads[name] {
				p.Reportf(call.Pos(), "os.%s reads the host or its environment, which (scenario, seed) does not determine; take the value as an explicit input", name)
				return true
			}
			if name, ok := pkgFuncCall(p.TypesInfo, call, randPath, randPath+"/v2"); ok {
				if !randConstructors[name] {
					p.Reportf(call.Pos(), "global math/rand source (rand.%s) is shared process state; draw from a seeded rand.New(rand.NewSource(seed))", name)
					return true
				}
				if name == "NewSource" || name == "NewZipf" {
					for _, arg := range call.Args {
						if bad, fn := nondetSeedCall(p, arg); bad {
							p.Reportf(arg.Pos(), "rand.%s seeded from a nondeterministic value (%s); derive the seed from the scenario seed", name, fn)
						}
					}
				}
			}
			return true
		})
	}
}

// nondetSeedCall reports whether the expression draws on a known
// nondeterministic source (wall clock, process identity).
func nondetSeedCall(p *Pass, e ast.Expr) (bad bool, fn string) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := pkgFuncCall(p.TypesInfo, call, "time"); ok {
			switch name {
			case "Now", "Since", "Until":
				bad, fn = true, "time."+name
				return false
			}
		}
		if name, ok := pkgFuncCall(p.TypesInfo, call, "os"); ok && hostReads[name] {
			bad, fn = true, "os."+name
			return false
		}
		return true
	})
	return bad, fn
}
