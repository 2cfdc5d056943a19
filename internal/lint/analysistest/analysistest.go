// Package analysistest runs analyzers over fixture packages and checks
// their diagnostics against `// want` comments — a dependency-free subset
// of golang.org/x/tools/go/analysis/analysistest with the same fixture
// layout and annotation syntax, so the fixtures under each analyzer's
// testdata/src would work unchanged with the upstream harness.
//
// A fixture package lives at testdata/src/<name>; its import path is just
// <name>, which is why the analyzers classify packages by import-path
// base. Run loads fixtures as upstream does, in GOPATH mode with testdata
// as the GOPATH, and through loadpkg.Load, the opera-lint driver's own
// loader: fixtures may import each other by their short paths (a fixture
// "sim" package stands in for internal/sim) and the standard library.
// Run sets that environment with t.Setenv, which rules out t.Parallel in
// its callers.
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
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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
	t.Setenv("GO111MODULE", "off")
	t.Setenv("GOPATH", dir)
	t.Setenv("GOFLAGS", "")
	loaded, err := loadpkg.Load(dir, pkgs...)
	if err != nil {
		t.Fatalf("%s: loading fixtures: %v", a.Name, err)
	}
	for _, pkg := range loaded {
		if pkg.Err != nil {
			t.Errorf("%s: loading fixture %q: %v", a.Name, pkg.ImportPath, pkg.Err)
			continue
		}
		check(t, a, pkg)
	}
}

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

func check(t *testing.T, a *analysis.Analyzer, pkg *loadpkg.Package) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
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
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Errorf("%s: running on %q: %v", a.Name, pkg.ImportPath, err)
		return
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
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
