// Package lintutil holds the helpers shared by the opera-lint analyzers:
// callee resolution, package classification by import-path base, and the
// `//operalint:allow` suppression directive.
//
// Directive convention: a comment of the form
//
//	//operalint:allow <check> [<check>...] [-- reason]
//
// suppresses the named checks on the directive's own line and on the line
// immediately below it, so both trailing and preceding placements work:
//
//	fc.eng.At(at, fn) //operalint:allow closuresched -- cold path
//
//	//operalint:allow maporder -- merged into per-key slots, order-free
//	for k, v := range m { ... }
//
// Like compiler directives, the comment must start exactly with
// "//operalint:" — no space after "//".
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PathBase returns the final element of an import path: the fixture
// package "sim" and the real "github.com/opera-net/opera/internal/sim"
// both report "sim". Analyzers classify packages by this base so their
// analysistest fixtures exercise the same code path as the real tree.
func PathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// PackageIs reports whether pkg's import-path base is one of names.
func PackageIs(pkg *types.Package, names ...string) bool {
	if pkg == nil {
		return false
	}
	base := PathBase(pkg.Path())
	for _, n := range names {
		if base == n {
			return true
		}
	}
	return false
}

// Callee resolves the object a call expression invokes: a *types.Func for
// ordinary function and method calls (including interface methods), a
// *types.Builtin for append and friends, nil for calls through function
// values or type conversions.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Package-qualified reference (pkg.F) or promoted field access.
		return info.Uses[fun.Sel]
	}
	return nil
}

// CalleeMethod resolves call to a method and reports the method object
// along with the base of its defining package — ("sim", Inject) for both
// sim.Faults.Inject and a fixture's sim.Injector.Inject. ok is
// false for non-methods.
func CalleeMethod(info *types.Info, call *ast.CallExpr) (fn *types.Func, pkgBase string, ok bool) {
	fn, _ = Callee(info, call).(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil, "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil, "", false
	}
	return fn, PathBase(fn.Pkg().Path()), true
}

// IsEngineSchedule reports whether call invokes one of the eventsim
// engine's scheduling methods (At, After, AtCall, AfterCall,
// ContinueCall), returning the method name.
func IsEngineSchedule(info *types.Info, call *ast.CallExpr) (name string, ok bool) {
	fn, base, ok := CalleeMethod(info, call)
	if !ok || base != "eventsim" {
		return "", false
	}
	switch fn.Name() {
	case "At", "After", "AtCall", "AfterCall", "ContinueCall":
		return fn.Name(), true
	}
	return "", false
}

// An Allowlist records which checks are suppressed on which source lines.
type Allowlist struct {
	fset *token.FileSet
	// lines maps file name → line → space-joined allowed check names.
	lines map[string]map[int]string
}

const directivePrefix = "//operalint:allow"

// NewAllowlist scans the files' comments for //operalint:allow directives.
func NewAllowlist(fset *token.FileSet, files []*ast.File) *Allowlist {
	al := &Allowlist{fset: fset, lines: make(map[string]map[int]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, found := strings.CutPrefix(c.Text, directivePrefix)
				if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				// Everything before a "--" separator names checks; the
				// rest is free-form rationale.
				if i := strings.Index(rest, "--"); i >= 0 {
					rest = rest[:i]
				}
				pos := fset.Position(c.Pos())
				m := al.lines[pos.Filename]
				if m == nil {
					m = make(map[int]string)
					al.lines[pos.Filename] = m
				}
				// The directive covers its own line (trailing form) and
				// the next line (preceding form).
				m[pos.Line] += " " + rest
				m[pos.Line+1] += " " + rest
			}
		}
	}
	return al
}

// Allows reports whether a directive suppresses check at pos.
func (al *Allowlist) Allows(pos token.Pos, check string) bool {
	p := al.fset.Position(pos)
	for _, name := range strings.Fields(al.lines[p.Filename][p.Line]) {
		if strings.Trim(name, ",") == check {
			return true
		}
	}
	return false
}
