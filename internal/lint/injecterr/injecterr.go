// Package injecterr defines an errcheck-style analyzer for the error
// results that are silent no-ops when dropped.
//
// Three API families in this repository report failure only through their
// return value, and do nothing at all when the call is invalid:
// sim.Faults.Inject/Recover (bad coordinates or an unsupported
// target mean the fault is never scheduled — the scenario then measures a
// healthy fabric and publishes wrong numbers), telemetry's Sketch.TryMerge
// (an alpha mismatch leaves the receiver untouched — a shard's samples
// vanish from the pooled quantiles), and the telemetry codec's
// UnmarshalBinary methods (a corrupt or version-skewed blob leaves the
// receiver untouched). A dropped error at any of these call sites is an
// experiment silently computing the wrong thing.
//
// The analyzer flags calls whose error result is discarded — expression
// statements, go/defer statements, and assignments to blank. Intentional
// drops carry `//operalint:allow injecterr -- reason`.
package injecterr

import (
	"go/ast"

	"github.com/opera-net/opera/internal/lint/analysis"
	"github.com/opera-net/opera/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "injecterr",
	Doc: "require checking the error results that are silent no-ops when dropped\n\n" +
		"Flags discarded errors from sim Faults Inject/Recover,\n" +
		"telemetry TryMerge, and the telemetry codec's UnmarshalBinary; a\n" +
		"dropped error means the fault was never injected or the state never\n" +
		"merged. Annotate intentional drops with //operalint:allow injecterr.",
	Run: run,
}

// watched maps defining-package base → method names whose error result
// must be consumed.
var watched = map[string]map[string]string{
	"sim": {
		"Inject":  "the fault is never scheduled",
		"Recover": "the recovery is never scheduled",
	},
	"telemetry": {
		"TryMerge":        "the merge leaves the receiver untouched",
		"UnmarshalBinary": "a failed decode leaves the receiver untouched",
	},
}

func run(pass *analysis.Pass) (any, error) {
	allow := lintutil.NewAllowlist(pass.Fset, pass.Files)
	report := func(call *ast.CallExpr) {
		fn, base, ok := lintutil.CalleeMethod(pass.TypesInfo, call)
		if !ok {
			return
		}
		consequence, ok := watched[base][fn.Name()]
		if !ok || allow.Allows(call.Pos(), "injecterr") {
			return
		}
		pass.Reportf(call.Pos(),
			"%s.%s error is discarded — on failure %s, a silent no-op; check the error, or annotate with //operalint:allow injecterr", base, fn.Name(), consequence)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					report(call)
				}
			case *ast.GoStmt:
				report(n.Call)
			case *ast.DeferStmt:
				report(n.Call)
			case *ast.AssignStmt:
				// A call assigned entirely to blanks is still a drop.
				if len(n.Rhs) != 1 || !allBlank(n.Lhs) {
					return true
				}
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					report(call)
				}
			}
			return true
		})
	}
	return nil, nil
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
