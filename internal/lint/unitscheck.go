package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnitsConsistency flags dimensionally-suspect arithmetic on the typed
// quantities declared in Config.UnitsPackages (internal/units):
//
//   - converting one dimension into another (units.Time(bytes),
//     units.ByteSize(rate)) — a conversion is a reinterpretation, not a
//     physical relation; crossing bytes ↔ sim-time ↔ rate needs a real
//     formula (Rate.Transmit, ByteSize.Throughput, ...). Time ↔ Duration
//     conversions share the sim-time dimension and are allowed.
//
//   - adding or subtracting two absolute sim-times with raw operators:
//     t1 - t2 is a Duration and t1 + t2 is meaningless, but both type-check
//     because Time is an integer type. Use Time.Add / Time.Sub, which say
//     which it is.
//
//   - comparing (or adding, subtracting, taking the remainder of) a
//     dimensioned value against a bare non-zero numeric literal: `d > 1000`
//     does not say 1000 *what*; write `d > units.Microsecond` (or scale a
//     named constant). Comparisons against 0 and scalar scaling with * and /
//     are legitimate and ignored.
//
// The declaring package itself is exempt — it defines the dimensions and
// their named constants out of raw literals, and its methods (Add, Sub,
// Transmit, BDP) are the sanctioned crossings.
var UnitsConsistency = &Analyzer{
	Name: "units-consistency",
	Doc:  "flag cross-dimension units conversions, raw +/- on absolute sim-times, and unit-vs-raw-literal arithmetic",
	Run:  runUnitsConsistency,
}

// unitsClassNames maps known internal/units type names to their dimension.
// Unknown names in a units package become their own dimension, so a future
// Packets type is covered without touching the linter.
var unitsClassNames = map[string]string{
	"Time":     "sim-time",
	"Duration": "sim-time",
	"ByteSize": "bytes",
	"Rate":     "rate",
}

func runUnitsConsistency(p *Pass) {
	if p.Pkg == nil || len(p.Config.UnitsPackages) == 0 {
		return
	}
	unitsPkgs := make(map[string]bool, len(p.Config.UnitsPackages))
	for _, path := range p.Config.UnitsPackages {
		if p.Pkg.Path() == path {
			return // the declaring package is exempt
		}
		unitsPkgs[path] = true
	}

	classOf := func(t types.Type) (class, typeName string) {
		if t == nil {
			return "", ""
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "", ""
		}
		obj := named.Obj()
		if obj == nil || obj.Pkg() == nil || !unitsPkgs[obj.Pkg().Path()] {
			return "", ""
		}
		name := obj.Name()
		if c, ok := unitsClassNames[name]; ok {
			return c, name
		}
		return strings.ToLower(name), name
	}

	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				checkUnitsBinary(p, x, classOf)
			case *ast.CallExpr:
				checkUnitsConversion(p, x, classOf)
			}
			return true
		})
	}
}

func checkUnitsBinary(p *Pass, be *ast.BinaryExpr, classOf func(types.Type) (string, string)) {
	switch be.Op {
	case token.ADD, token.SUB, token.REM,
		token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
	default:
		return // * and / are scalar scaling; everything else is out of scope
	}
	xClass, xName := classOf(p.TypesInfo.TypeOf(be.X))
	yClass, yName := classOf(p.TypesInfo.TypeOf(be.Y))

	if (be.Op == token.ADD || be.Op == token.SUB) && xName == "Time" && yName == "Time" {
		verb := "adding"
		hint := "meaningless for absolute sim-times; offset with Time.Add(Duration)"
		if be.Op == token.SUB {
			verb = "subtracting"
			hint = "a Duration in disguise; use Time.Sub for an explicit Duration"
		}
		p.Reportf(be.OpPos, "%s two absolute sim-times with %s is %s", verb, be.Op, hint)
		return
	}
	if xClass != "" && rawNonZeroLiteral(be.Y) {
		p.Reportf(be.OpPos, "%s value compared/combined (%s) with bare literal %s; use a named units constant so the magnitude has a dimension",
			xName, be.Op, litText(be.Y))
		return
	}
	if yClass != "" && rawNonZeroLiteral(be.X) {
		p.Reportf(be.OpPos, "%s value compared/combined (%s) with bare literal %s; use a named units constant so the magnitude has a dimension",
			yName, be.Op, litText(be.X))
	}
}

func checkUnitsConversion(p *Pass, call *ast.CallExpr, classOf func(types.Type) (string, string)) {
	if !isConversion(p.TypesInfo, call) || len(call.Args) != 1 {
		return
	}
	dstClass, dstName := classOf(p.TypesInfo.TypeOf(call.Fun))
	srcClass, srcName := classOf(p.TypesInfo.TypeOf(call.Args[0]))
	if dstClass == "" || srcClass == "" || dstClass == srcClass {
		return
	}
	p.Reportf(call.Pos(), "conversion %s(%s) crosses units dimensions %s → %s; use an explicit relation (e.g. Rate.Transmit, ByteSize.Throughput) instead of a cast",
		dstName, srcName, srcClass, dstClass)
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// rawNonZeroLiteral reports whether e is a bare numeric literal other than 0
// (possibly parenthesized or sign-prefixed). Named constants resolve through
// identifiers and do not match.
func rawNonZeroLiteral(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && (u.Op == token.SUB || u.Op == token.ADD) {
		e = ast.Unparen(u.X)
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || (lit.Kind != token.INT && lit.Kind != token.FLOAT) {
		return false
	}
	trimmed := strings.Trim(lit.Value, "0.")
	return trimmed != "" // "0", "0.0", "00" are all zero
}

// litText renders the literal for the message.
func litText(e ast.Expr) string {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		if lit, ok := ast.Unparen(u.X).(*ast.BasicLit); ok {
			return u.Op.String() + lit.Value
		}
	}
	if lit, ok := e.(*ast.BasicLit); ok {
		return lit.Value
	}
	return "?"
}
