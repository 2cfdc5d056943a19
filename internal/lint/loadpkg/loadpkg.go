// Package loadpkg loads and type-checks Go packages for the opera-lint
// analyzers without depending on golang.org/x/tools/go/packages.
//
// It shells out to `go list -export -deps -json` once per Load call: the
// go command resolves patterns, builds every dependency, and hands back
// compiler export data for each package in the graph. Target packages are
// then parsed from source (with comments, so suppression directives are
// visible) and type-checked against that export data — the same
// architecture as an x/tools unitchecker driver, using only the standard
// library's go/importer.
package loadpkg

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one parsed and type-checked target package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File // non-test Go files, parsed with comments
	Types      *types.Package
	Info       *types.Info
	Err        error // listing, parse, or type-check failure
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") relative to dir and returns one
// Package per matched (non-dependency-only) package. Packages that fail
// to list, parse, or type-check are returned with Err set rather than
// aborting the whole load, so a driver can report every problem at once.
// A load that matches no package at all is an error carrying the go
// command's warnings, so a mistyped pattern cannot pass as clean.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := make(map[string]string)
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, &p)
		}
	}

	if len(targets) == 0 {
		return nil, fmt.Errorf("go list %v: no package matched\n%s", patterns, bytes.TrimSpace(stderr.Bytes()))
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loadpkg: no export data for %q", path)
		}
		return os.Open(f)
	})
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		pkg := &Package{ImportPath: t.ImportPath, Fset: fset}
		pkgs = append(pkgs, pkg)
		if t.Error != nil {
			pkg.Err = errors.New(t.Error.Err)
			continue
		}
		if len(t.GoFiles) == 0 {
			continue
		}
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				pkg.Err = err
				break
			}
			pkg.Files = append(pkg.Files, f)
		}
		if pkg.Err != nil {
			continue
		}
		// The maps the analyzers and the callers test consult.
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		pkg.Types, pkg.Err = conf.Check(t.ImportPath, fset, pkg.Files, pkg.Info)
	}
	return pkgs, nil
}
