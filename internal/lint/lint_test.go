package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var std struct {
	once   sync.Once
	loader *Loader
	err    error
}

// stdLoader returns a Loader over the standard-library packages the fixtures
// and fuzz inputs import, listed once per test binary.
func stdLoader(t testing.TB) *Loader {
	t.Helper()
	std.once.Do(func() {
		std.loader, _, std.err = Load(".", "fmt", "io", "math/rand", "os", "sort", "time")
	})
	if std.err != nil {
		t.Fatal(std.err)
	}
	return std.loader
}

// loadFixtureDir parses one testdata package and type-checks it as the bare
// import path name with the given loader.
func loadFixtureDir(t *testing.T, l *Loader, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("fixture %s: no Go files (%v)", name, err)
	}
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		files = append(files, f)
	}
	pkg := l.LoadFiles(dir, name, files)
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: typecheck: %v", name, terr)
	}
	return pkg
}

// chainImporter serves already-type-checked fixture packages by import path
// and defers everything else (stdlib) to the export-data importer.
type chainImporter struct {
	known    map[string]*types.Package
	fallback types.Importer
}

func (c chainImporter) Import(path string) (*types.Package, error) {
	if p := c.known[path]; p != nil {
		return p, nil
	}
	return c.fallback.Import(path)
}

func (c chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := c.known[path]; p != nil {
		return p, nil
	}
	if from, ok := c.fallback.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return c.fallback.Import(path)
}

// fixtureConfig holds the fleetdet fixture to the strict-time rule and
// names the units fixture's declaring package.
func fixtureConfig() Config {
	return Config{
		StrictTimePackages: []string{"fleetdet"},
		UnitsPackages:      []string{"unitsdef"},
	}
}

// TestFixtures runs every analyzer over each annotated fixture and matches
// the diagnostics against the // want comments — including the suppression
// directives and the seeded-rand false-positive cases, which must stay
// silent.
func TestFixtures(t *testing.T) {
	for _, name := range []string{"determ", "fleetdet", "maporder", "floateq"} {
		name := name
		t.Run(name, func(t *testing.T) {
			pkg := loadFixtureDir(t, stdLoader(t), name)
			checkFixture(t, pkg)
		})
	}
}

func checkFixture(t *testing.T, pkg *Package) {
	t.Helper()
	diags := Run(pkg, All(), fixtureConfig())
	wants, err := ParseWants(pkg.Fset, pkg.Files)
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range CheckWants(wants, diags) {
		t.Error(problem)
	}
}

// TestUnitsFixture type-checks the two-package units fixture — the
// dimension-declaring package and a consumer — and verifies both that mixed
// arithmetic is flagged in the consumer and that the declaring package is
// exempt.
func TestUnitsFixture(t *testing.T) {
	l := *stdLoader(t)
	def := loadFixtureDir(t, &l, "unitsdef")
	l.Importer = chainImporter{
		known:    map[string]*types.Package{"unitsdef": def.Types},
		fallback: l.Importer,
	}
	use := loadFixtureDir(t, &l, "unitsfix")
	if diags := Run(def, All(), fixtureConfig()); len(diags) != 0 {
		t.Errorf("declaring package must be exempt, got %v", diags)
	}
	checkFixture(t, use)
}

// TestMalformedDirectives feeds in-memory sources with broken or idle
// suppression comments and checks each is reported (and does not suppress
// anything).
func TestMalformedDirectives(t *testing.T) {
	cases := []struct {
		name, src, want string
		stillFlagged    bool
	}{
		{
			name: "missing reason",
			src: `package p
import "time"
func f() time.Time {
	//dynaqlint:allow determinism
	return time.Now()
}`,
			want:         "needs a reason",
			stillFlagged: true,
		},
		{
			name: "unknown analyzer",
			src: `package p
func f() int {
	//dynaqlint:allow frobnicate because reasons
	return 1
}`,
			want: "needs an analyzer name",
		},
		{
			name: "unknown verb",
			src: `package p
func f() int {
	//dynaqlint:forbid determinism nope
	return 1
}`,
			want: `only "allow" is supported`,
		},
		{
			name: "unused waiver",
			src: `package p
func f(a, b int) bool {
	//dynaqlint:allow float-eq integers compare exactly
	return a == b
}`,
			want: "suppresses nothing",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			l := stdLoader(t)
			f, err := parser.ParseFile(l.Fset, "fix.go", tc.src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkg := l.LoadFiles(".", "p", []*ast.File{f})
			diags := Run(pkg, All(), fixtureConfig())
			var directive, determinism bool
			for _, d := range diags {
				switch d.Analyzer {
				case "directive":
					directive = true
					if !strings.Contains(d.Message, tc.want) {
						t.Errorf("directive diagnostic %q does not mention %q", d.Message, tc.want)
					}
				case "determinism":
					determinism = true
				}
			}
			if !directive {
				t.Errorf("malformed directive not reported; got %v", diags)
			}
			if determinism != tc.stillFlagged {
				t.Errorf("determinism flagged = %v, want %v (malformed directives must not suppress); got %v", determinism, tc.stillFlagged, diags)
			}
		})
	}
}

// TestInjectedWallClockCaught is the acceptance drill: plant a time.Now()
// into internal/sim (in memory — the tree is untouched), type-check the
// package, and require a correctly-positioned determinism diagnostic. This
// is exactly the regression the CI gate would catch.
func TestInjectedWallClockCaught(t *testing.T) {
	l, pkgs, err := Load(".", "dynaq/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("want internal/sim alone, got %d packages", len(pkgs))
	}
	pkg := pkgs[0]
	if diags := Run(pkg, All(), DefaultConfig()); len(diags) != 0 {
		t.Fatalf("internal/sim should be clean before injection, got %v", diags)
	}

	injected := filepath.Join(pkg.Dir, "zz_injected_clock.go")
	src := `package sim

import "time"

// injectedNow is the nondeterminism bug the linter must catch.
func injectedNow() time.Time { return time.Now() }
`
	f, err := parser.ParseFile(l.Fset, injected, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg = l.LoadFiles(pkg.Dir, pkg.ImportPath, append(pkg.Files, f))
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("injected package must still type-check: %v", terr)
	}
	diags := Run(pkg, All(), DefaultConfig())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic after injection, got %v", diags)
	}
	d := diags[0]
	if d.Analyzer != "determinism" || d.Pos.Filename != injected || d.Pos.Line != 6 {
		t.Fatalf("want determinism diagnostic at %s:6, got %v", injected, d)
	}
}

// TestCleanTree is the in-process version of the CI gate: every package in
// the module must lint clean with the default configuration.
func TestCleanTree(t *testing.T) {
	_, pkgs, err := Load(".", "dynaq/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("go list found only %d packages", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: typecheck: %v", pkg.ImportPath, terr)
		}
		for _, d := range Run(pkg, All(), DefaultConfig()) {
			t.Errorf("%s: unsuppressed diagnostic: %s", pkg.ImportPath, d)
		}
	}
}

// TestLoadListsWhatTheGoToolBuilds holds Load to the go tool's idea of a
// package: in a fresh module, a file behind //go:build ignore and a package
// under testdata both read the wall clock, and neither may reach the
// analyzers.
func TestLoadListsWhatTheGoToolBuilds(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":                      "module loadcheck\n\ngo 1.22\n",
		"clean/clean.go":              "package clean\n\nfunc Two() int { return 2 }\n",
		"clean/ignored.go":            "//go:build ignore\n\npackage clean\n\nimport \"time\"\n\nfunc now() time.Time { return time.Now() }\n",
		"testdata/fixture/fixture.go": "package fixture\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "loadcheck/clean" || len(pkgs[0].Files) != 1 {
		for _, p := range pkgs {
			t.Logf("loaded %s (%d files)", p.ImportPath, len(p.Files))
		}
		t.Fatalf("want loadcheck/clean with one file, got %d packages", len(pkgs))
	}
	for _, terr := range pkgs[0].TypeErrors {
		t.Errorf("typecheck: %v", terr)
	}
	if diags := Run(pkgs[0], All(), DefaultConfig()); len(diags) != 0 {
		t.Errorf("want no diagnostics, got %v", diags)
	}
}

// TestOutputFormats pins the text rendering editors and CI logs parse.
func TestOutputFormats(t *testing.T) {
	diags := []Diagnostic{{
		Analyzer: "determinism",
		Message:  "wall-clock read",
	}}
	diags[0].Pos.Filename = "a/b.go"
	diags[0].Pos.Line = 3
	diags[0].Pos.Column = 7

	var text strings.Builder
	if err := WriteText(&text, diags); err != nil {
		t.Fatal(err)
	}
	if got, want := text.String(), "a/b.go:3:7: determinism: wall-clock read\n"; got != want {
		t.Errorf("WriteText = %q, want %q", got, want)
	}
}

// TestDiagnosticString keeps the human format stable for editors that parse
// file:line:col.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "float-eq", Message: "m"}
	d.Pos.Filename = "x.go"
	d.Pos.Line, d.Pos.Column = 1, 2
	if got, want := fmt.Sprint(d), "x.go:1:2: float-eq: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
