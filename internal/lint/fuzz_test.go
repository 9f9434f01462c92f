package lint

import (
	"go/ast"
	"go/parser"
	"testing"
)

// FuzzLoadAndRun throws arbitrary Go source at the loader and the full
// analyzer set. The property under test is absence of panics: malformed,
// half-parsed, or ill-typed input must degrade to TypeErrors and best-effort
// diagnostics, never crash the linter (it gates CI, so a crash on one bad
// file would mask every other finding).
func FuzzLoadAndRun(f *testing.F) {
	f.Add("package fuzzpkg\n\nfunc ok() int { return 1 }\n")
	f.Add("package fuzzpkg\n\nimport (\n\t\"os\"\n\t\"time\"\n)\n\nfunc bad() string { return os.Getenv(\"X\") + time.Now().String() }\n")
	f.Add("package fuzzpkg\n\nfunc eq(a, b float64) bool {\n\t//dynaqlint:allow float-eq\n\treturn a == b //dynaqlint:allow map-order idle\n}\n")
	f.Add("package fuzzpkg\n\ntype Time int64\n\nfunc add(a, b Time) Time { return a + b }\n")
	f.Add("package fuzzpkg\n\nfunc (") // malformed: truncated method decl
	f.Add("package fuzzpkg\n\nfunc cycle() { cycle() }\n")
	f.Add("package fuzzpkg\n\nfunc m() { x := map[int]int{}; for k := range x { _ = k } }\n")
	f.Add("\x00\xff not go at all")

	f.Fuzz(func(t *testing.T, src string) {
		// Inputs share only the imported stdlib packages: each LoadFiles
		// type-checks its files afresh.
		l := stdLoader(t)
		file, err := parser.ParseFile(l.Fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if file == nil {
				return // nothing even partially parsed
			}
			// Keep going: Load would reject this, but the analyzers must
			// survive partial ASTs regardless.
		}
		pkg := l.LoadFiles(".", "fuzzpkg", []*ast.File{file})
		cfg := DefaultConfig()
		cfg.StrictTimePackages = append(cfg.StrictTimePackages, "fuzzpkg")
		cfg.UnitsPackages = append(cfg.UnitsPackages, "fuzzpkg")
		_ = Run(pkg, All(), cfg)
	})
}
