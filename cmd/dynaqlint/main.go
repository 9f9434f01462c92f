// Command dynaqlint is the repo's determinism linter: a stdlib-only
// static-analysis pass (go/parser + go/types, no x/tools) that flags source
// constructs which silently break the simulator's byte-identical
// (scenario, seed) replay guarantee. `go list -export` finds the packages
// and compiles their dependencies, so the go command on PATH must be the
// toolchain that built dynaqlint, as `go run` guarantees. See internal/lint
// for the analyzers and DESIGN.md ("Static analysis") for the audit that
// chose them.
//
// Usage:
//
//	dynaqlint ./...              # lint every package
//	dynaqlint ./internal/core    # lint one package
//	dynaqlint -list              # describe the analyzers
//
// Exit status: 0 when clean, 1 when any unsuppressed diagnostic was
// reported, 2 on usage or load errors. CI runs `go run ./cmd/dynaqlint ./...`
// and fails the build on any finding; legitimate sites carry a
// `//dynaqlint:allow <analyzer> <reason>` directive, and a directive that
// suppresses nothing is a finding too.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dynaq"
	"dynaq/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dynaqlint [-list] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		fmt.Println("dynaqlint", dynaq.Version)
		return
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("  %-18s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	_, pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynaqlint: %v\n", err)
		os.Exit(2)
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "dynaqlint: no packages matched %v\n", patterns)
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynaqlint: %v\n", err)
		os.Exit(2)
	}

	cfg := lint.DefaultConfig()
	var diags []lint.Diagnostic
	loadFailed := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "dynaqlint: %s: typecheck: %v\n", pkg.ImportPath, terr)
			loadFailed = true
		}
		diags = append(diags, lint.Run(pkg, analyzers, cfg)...)
	}
	// The go tool reports absolute directories; print paths as the working
	// directory sees them.
	for i := range diags {
		if rel, err := filepath.Rel(wd, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}

	if err := lint.WriteText(os.Stdout, diags); err != nil {
		fmt.Fprintf(os.Stderr, "dynaqlint: %v\n", err)
		os.Exit(2)
	}
	switch {
	case loadFailed:
		os.Exit(2)
	case len(diags) > 0:
		fmt.Fprintf(os.Stderr, "dynaqlint: %d finding(s); fix them or add //dynaqlint:allow <analyzer> <reason>\n", len(diags))
		os.Exit(1)
	}
}
