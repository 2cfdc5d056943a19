// Command opera-lint runs the repository's determinism and error-handling
// analyzers over Go packages — the mechanical form of the invariants the
// simulator's results stand on.
//
// Usage:
//
//	opera-lint [-list] [packages...]
//
// With no arguments it analyzes ./... . Patterns are resolved by the go
// command, so anything `go list` accepts works. Non-test Go files are
// analyzed; the exit status is 0 when clean, 1 when diagnostics were
// reported, 2 when loading or type-checking failed or no package matched.
//
// The three analyzers (see each package's doc for the full rationale):
//
//	determrand      wall-clock reads and global-RNG draws in simulation code
//	maporder        order-sensitive range-over-map loops
//	injecterr       discarded errors that are silent no-ops (Inject/Recover,
//	                Collector Merge, codec UnmarshalBinary)
//
// Findings are suppressed line-by-line with
// `//operalint:allow <check> -- reason`; see internal/lint/lintutil.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/opera-net/opera/internal/lint/analysis"
	"github.com/opera-net/opera/internal/lint/determrand"
	"github.com/opera-net/opera/internal/lint/injecterr"
	"github.com/opera-net/opera/internal/lint/loadpkg"
	"github.com/opera-net/opera/internal/lint/maporder"
)

var analyzers = []*analysis.Analyzer{
	determrand.Analyzer,
	maporder.Analyzer,
	injecterr.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: opera-lint [-list] [packages...]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the opera determinism and error-handling analyzers (default pattern ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(run(patterns))
}

func run(patterns []string) int {
	pkgs, err := loadpkg.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "opera-lint:", err)
		return 2
	}
	status := 0
	for _, pkg := range pkgs {
		if pkg.Err != nil {
			fmt.Fprintf(os.Stderr, "opera-lint: %s: %v\n", pkg.ImportPath, pkg.Err)
			status = 2
			continue
		}
		if len(pkg.Files) == 0 {
			continue
		}
		type finding struct {
			d        analysis.Diagnostic
			analyzer string
		}
		var findings []finding
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, finding{d, name})
			}
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "opera-lint: %s: %s: %v\n", a.Name, pkg.ImportPath, err)
				status = 2
			}
		}
		sort.SliceStable(findings, func(i, j int) bool {
			return findings[i].d.Pos < findings[j].d.Pos
		})
		for _, f := range findings {
			fmt.Printf("%s: %s (%s)\n", pkg.Fset.Position(f.d.Pos), f.d.Message, f.analyzer)
			if status == 0 {
				status = 1
			}
		}
	}
	return status
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
