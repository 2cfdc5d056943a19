// Package analysistest runs analyzers over fixture packages and checks
// their diagnostics against `// want` comments — a dependency-free subset
// of golang.org/x/tools/go/analysis/analysistest with the same fixture
// layout and annotation syntax, so the fixtures under each analyzer's
// testdata/src would work unchanged with the upstream harness.
//
// A fixture package lives at testdata/src/<name>; its import path is just
// <name>, which is why the analyzers classify packages by import-path
// base. Fixture packages may import each other by those short paths (a
// fixture "sim" package stands in for internal/sim) and may import the
// standard library, which is resolved through `go list -export`.
//
// Expectation syntax, per line:
//
//	for _, v := range m { out = append(out, v) } // want `appends to a slice`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression that must match exactly one diagnostic reported on that
// line; diagnostics with no matching want (and wants with no matching
// diagnostic) fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/lint/analysis"
	"github.com/opera-net/opera/internal/lint/loadpkg"
)

// TestData returns the caller's testdata directory, the conventional
// fixture root.
func TestData() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run analyzes each named fixture package under dir/src with a and
// reports any mismatch between diagnostics and want annotations.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	ld := &loader{
		root: filepath.Join(dir, "src"),
		fset: token.NewFileSet(),
		pkgs: make(map[string]*fixturePkg),
		std:  make(map[string]string),
	}
	ld.stdImp = loadpkg.ExportImporter(ld.fset, ld.std)
	for _, name := range pkgs {
		fp, err := ld.load(name)
		if err != nil {
			t.Errorf("%s: loading fixture %q: %v", a.Name, name, err)
			continue
		}
		check(t, ld.fset, a, fp)
	}
}

// fixturePkg is one loaded fixture package.
type fixturePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type loader struct {
	root    string
	fset    *token.FileSet
	pkgs    map[string]*fixturePkg
	std     map[string]string // import path → export-data file
	stdImp  types.Importer
	loading []string // active load stack, for cycle reporting
}

// Import implements types.Importer over fixture-relative paths first,
// falling back to standard-library export data.
func (ld *loader) Import(path string) (*types.Package, error) {
	if info, err := os.Stat(filepath.Join(ld.root, path)); err == nil && info.IsDir() {
		fp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return fp.types, nil
	}
	exports, err := loadpkg.StdExports(path)
	if err != nil {
		return nil, err
	}
	for k, v := range exports {
		ld.std[k] = v
	}
	return ld.stdImp.Import(path)
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if fp, ok := ld.pkgs[path]; ok {
		return fp, nil
	}
	for _, active := range ld.loading {
		if active == path {
			return nil, fmt.Errorf("fixture import cycle through %q", path)
		}
	}
	ld.loading = append(ld.loading, path)
	defer func() { ld.loading = ld.loading[:len(ld.loading)-1] }()

	dir := filepath.Join(ld.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	fp := &fixturePkg{path: path, info: loadpkg.NewInfo()}
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		fp.files = append(fp.files, f)
	}
	conf := types.Config{Importer: ld}
	fp.types, err = conf.Check(path, ld.fset, fp.files, fp.info)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = fp
	return fp, nil
}

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

func check(t *testing.T, fset *token.FileSet, a *analysis.Analyzer, fp *fixturePkg) {
	t.Helper()
	var wants []*want
	for _, f := range fp.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				ws, err := parseWants(c.Text, pos)
				if err != nil {
					t.Errorf("%s: %v", pos, err)
				}
				wants = append(wants, ws...)
			}
		}
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     fp.files,
		Pkg:       fp.types,
		TypesInfo: fp.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Errorf("%s: running on %q: %v", a.Name, fp.path, err)
		return
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s: %s", a.Name, pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: %s:%d: no diagnostic matched %q", a.Name, w.file, w.line, w.rx)
		}
	}
}

// parseWants extracts the expectations from one comment's text. Only
// comments of the exact form `// want "..."` are expectations; "want"
// appearing mid-sentence in prose is not.
func parseWants(text string, pos token.Position) ([]*want, error) {
	body, ok := strings.CutPrefix(text, "//")
	if !ok {
		return nil, nil // /* */ comments carry no expectations
	}
	rest, ok := strings.CutPrefix(strings.TrimSpace(body), "want ")
	if !ok {
		return nil, nil
	}
	rest = strings.TrimSpace(rest)
	var wants []*want
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("malformed want expectation %q", rest)
		}
		pat, err := strconv.Unquote(q)
		if err != nil {
			return nil, fmt.Errorf("unquoting %q: %v", q, err)
		}
		rx, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", pat, err)
		}
		wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx})
		rest = strings.TrimSpace(rest[len(q):])
	}
	return wants, nil
}
