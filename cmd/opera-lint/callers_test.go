package main

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/lint/loadpkg"
)

const internalPrefix = "github.com/opera-net/opera/internal/"

// testOnlyKeep lists the definitions under internal/ that only tests
// call and that stay anyway, each with the check it serves. A key is a
// package path relative to internal/ (the whole package is kept), a
// package-level name ("topology.MustNewOpera") or a method
// ("(*eventsim.Engine).Run").
var testOnlyKeep = map[string]string{
	"lint/analysistest": "the analyzers' fixture harness, test-only by design",

	"eventsim.NewHeapScheduler":       "the oracle the timing wheel is checked against",
	"eventsim.NewTieShuffleScheduler": "the tie-order oracle: how much results depend on FIFO ties",
	"routing.countRules":              "the per-cell rule count RuleCount's closed form is checked against",
	"topology.VerifyFactorization":    "the validator the Opera factorization is checked with",

	"(*eventsim.Engine).Run":        "fixture: drives an engine to quiescence in other packages' tests",
	"topology.MustNewOpera":         "fixture: builds a schedule in other packages' tests",
	"topology.MustNewExpander":      "fixture: builds an expander in other packages' tests",
	"topology.MustNewFoldedClos":    "fixture: builds a folded Clos in other packages' tests",
	"(*sim.ClosNet).Topology":       "fixture: TestSpecClosSizingFieldsDefaultIndependently reads k and F through it",
	"(*sim.ExpanderNet).Topology":   "fixture: tests read the expander a cluster was built on",
	"(*sim.rotorFabric).Topology":   "fixture: tests read the schedule a rotor fabric runs",
	"(*sim.rotorFabric).ToR":        "fixture: tests reach a rotor fabric's ToRs",
	"(*sim.RotorToR).Uplink":        "fixture: tests reach a ToR's uplink ports",
	"(*routing.Tables).Built":       "observer: TestRecoverySlicesBuiltOnDemand counts the slices a fault epoch builds",
	"(*sim.OperaNet).InformedCount": "observer: the §3.6.2 hello epidemic's reach",
	"(*sim.Metrics).BandwidthTax":   "observer: the quickstart ExampleCluster_AddFlow prints it",
}

// TestInternalCodeHasNonTestCaller holds internal/ to the rule that
// options already follow: a definition is earned by a caller outside
// the tests. It loads the module and bench/ (non-test files only) and
// reports every package-level func, var, const, type and method
// declared under internal/ that no non-test file uses. A method whose
// signature matches a method of an interface in the import closure is
// taken as used (it may be called through that interface); testOnlyKeep
// exempts the rest.
func TestInternalCodeHasNonTestCaller(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*loadpkg.Package
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		loaded, err := loadpkg.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range loaded {
			if p.Err != nil {
				t.Fatalf("%s: %v", p.ImportPath, p.Err)
			}
		}
		pkgs = append(pkgs, loaded...)
	}

	used := make(map[string]bool)
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		for _, obj := range p.Info.Uses {
			if k := declKey(obj); k != "" {
				used[k] = true
			}
		}
	}
	ifaceSigs := interfaceMethods(pkgs)

	var unused []string
	kept := make(map[string]bool)
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.ImportPath, internalPrefix)
		if !ok || p.Info == nil {
			continue
		}
		if _, ok := testOnlyKeep[rel]; ok {
			kept[rel] = true
			continue
		}
		for _, obj := range declared(p) {
			k := declKey(obj)
			if k == "" || used[k] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil && ifaceSigs[fn.Name()+sigKey(sig)] {
					continue
				}
			}
			if _, ok := testOnlyKeep[k]; ok {
				kept[k] = true
				continue
			}
			unused = append(unused, p.Fset.Position(obj.Pos()).String()+": "+k)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside the tests: delete it, or move its check into its test", u)
	}
	for k := range testOnlyKeep {
		if !kept[k] {
			t.Errorf("testOnlyKeep[%q]: no longer a test-only definition under internal/; drop the entry", k)
		}
	}
}

// declared returns the package-level funcs, vars, consts and types and
// the methods declared in p's files.
func declared(p *loadpkg.Package) []types.Object {
	var objs []types.Object
	add := func(id *ast.Ident) {
		if id.Name == "_" || id.Name == "init" {
			return
		}
		if obj := p.Info.Defs[id]; obj != nil {
			objs = append(objs, obj)
		}
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					case *ast.TypeSpec:
						add(s.Name)
					}
				}
			}
		}
	}
	return objs
}

// declKey names a package-level object or a method of a named type
// declared under internal/, the same way whichever load type-checked
// it; any other object gets "".
func declKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	pkg, ok := strings.CutPrefix(obj.Pkg().Path(), internalPrefix)
	if !ok {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		recv := fn.Origin().Type().(*types.Signature).Recv()
		if recv != nil {
			rt, ptr := recv.Type(), ""
			if p, ok := rt.(*types.Pointer); ok {
				rt, ptr = p.Elem(), "*"
			}
			named, ok := rt.(*types.Named)
			if !ok || types.IsInterface(named) {
				return ""
			}
			return "(" + ptr + pkg + "." + named.Obj().Name() + ")." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return pkg + "." + obj.Name()
}

// interfaceMethods returns name+sigKey for every method of every named
// interface in the import closure of pkgs, and of error.
func interfaceMethods(pkgs []*loadpkg.Package) map[string]bool {
	sigs := make(map[string]bool)
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				sigs[m.Name()+sigKey(m.Type().(*types.Signature))] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		if p.Types != nil {
			walk(p.Types)
		}
	}
	return sigs
}

// sigKey spells a signature's parameter and result types, receiver
// left out, with full package paths, so signatures from different loads
// compare equal.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), nil))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}
