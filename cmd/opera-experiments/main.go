// Command opera-experiments regenerates every table and figure of the
// Opera paper's evaluation, writing CSVs under -out (default ./results).
//
// By default the packet-level experiments (Figures 7–10) run at a reduced
// 64-host scale that completes in minutes; -full selects the paper's
// 648-host scale (expect long runtimes). Analysis-only artifacts
// (Figures 1, 4, 11–20, Tables 1–2) always run at paper scale unless
// -small is given.
//
// Usage:
//
//	opera-experiments [-out dir] [-only fig07,fig08,...] [-full] [-small]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"github.com/opera-net/opera/internal/experiments"
	"github.com/opera-net/opera/internal/plot"
	"github.com/opera-net/opera/internal/prototype"
)

// selectJobs reports which of the jobs named in names -only asks for (all
// of them when it is empty). A name that is no job is an error, so a typo
// cannot silently skip a figure.
func selectJobs(names []string, only string) ([]bool, error) {
	picked := make([]bool, len(names))
	if only == "" {
		for i := range picked {
			picked[i] = true
		}
		return picked, nil
	}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		i := slices.Index(names, name)
		if i < 0 {
			return nil, fmt.Errorf("-only: unknown job %q (have %s)", name, strings.Join(names, ","))
		}
		picked[i] = true
	}
	return picked, nil
}

func main() {
	// Set from the flags below; the jobs read them when they run.
	var (
		analysisScale experiments.Scale
		simOpt        experiments.SimOptions
		shufOpt       experiments.ShuffleOptions
		mixOpt        experiments.MixedOptions
		trials        int
	)
	type job struct {
		name string
		run  func() ([]experiments.Table, error)
	}
	jobs := []job{
		{"fig01", func() ([]experiments.Table, error) { return experiments.Fig01FlowSizeCDFs(), nil }},
		{"fig04", func() ([]experiments.Table, error) { return experiments.Fig04PathLengths(analysisScale) }},
		{"fig07", func() ([]experiments.Table, error) { return experiments.Fig07Datamining(simOpt) }},
		{"fig08", func() ([]experiments.Table, error) { return experiments.Fig08Shuffle(shufOpt) }},
		{"fig09", func() ([]experiments.Table, error) { return experiments.Fig09Websearch(simOpt) }},
		{"fig10", func() ([]experiments.Table, error) { return experiments.Fig10Mixed(mixOpt) }},
		{"fig11", func() ([]experiments.Table, error) { return experiments.Fig11FaultTolerance(analysisScale, trials) }},
		{"fig12", experiments.Fig12CostSweepK24},
		{"fig13", func() ([]experiments.Table, error) { return experiments.Fig13Prototype(prototype.DefaultParams()) }},
		{"fig14", func() ([]experiments.Table, error) { return experiments.Fig14CycleTime(), nil }},
		{"fig15", experiments.Fig15CostSweepK12},
		{"fig16", func() ([]experiments.Table, error) { return experiments.Fig16PathVsScale(nil) }},
		{"fig17", func() ([]experiments.Table, error) { return experiments.Fig17SpectralGap(analysisScale) }},
		{"fig19", func() ([]experiments.Table, error) { return experiments.Fig19ClosFailures(analysisScale, trials) }},
		{"fig20", func() ([]experiments.Table, error) { return experiments.Fig20ExpanderFailures(analysisScale, trials) }},
		{"table1", func() ([]experiments.Table, error) { return experiments.Table1RuleCounts(), nil }},
		{"table2", func() ([]experiments.Table, error) { return experiments.Table2Cost(), nil }},
		{"ablation", experiments.AblationVLB},
		{"guardband", func() ([]experiments.Table, error) { return experiments.GuardBandSweep(analysisScale) }},
	}
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.name
	}

	out := flag.String("out", "results", "output directory for CSVs")
	only := flag.String("only", "", "comma-separated subset ("+strings.Join(names, ",")+")")
	full := flag.Bool("full", false, "run packet-level experiments at the paper's 648-host scale")
	small := flag.Bool("small", false, "run analysis experiments at reduced scale too")
	flag.IntVar(&trials, "trials", 3, "failure-analysis trials per point")
	doPlot := flag.Bool("plot", false, "render ASCII charts of CDF-style figures to stdout")
	flag.Parse()

	picked, err := selectJobs(names, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	analysisScale = experiments.PaperScale()
	if *small {
		analysisScale = experiments.SmallScale()
	}
	simOpt = experiments.DefaultSimOptions()
	shufOpt = experiments.DefaultShuffleOptions()
	mixOpt = experiments.DefaultMixedOptions()
	if *full {
		simOpt = experiments.PaperSimOptions()
		shufOpt.Scale = experiments.PaperScale()
		shufOpt.Stagger = 10_000_000 // 10 ms, as §5.2
		mixOpt.Scale = experiments.PaperScale()
	}

	failed := 0
	for i, j := range jobs {
		if !picked[i] {
			continue
		}
		fmt.Printf("=== %s\n", j.name)
		tables, err := j.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", j.name, err)
			failed++
			continue
		}
		if err := experiments.WriteAll(*out, tables); err != nil {
			fmt.Fprintf(os.Stderr, "%s: write: %v\n", j.name, err)
			failed++
			continue
		}
		for _, t := range tables {
			fmt.Printf("    wrote %s/%s.csv (%d rows)\n", *out, t.Name, len(t.Rows))
			if *doPlot {
				plotTable(t)
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// plotTable renders CDF-shaped tables (series name, x, y columns) as ASCII
// charts. Other shapes are skipped.
func plotTable(t experiments.Table) {
	if len(t.Header) != 3 || len(t.Rows) == 0 {
		return
	}
	bySeries := map[string]*plot.Series{}
	var order []string
	logX := false
	for _, r := range t.Rows {
		x, errX := strconv.ParseFloat(r[1], 64)
		y, errY := strconv.ParseFloat(r[2], 64)
		if errX != nil || errY != nil {
			return // not numeric: nothing to draw
		}
		s := bySeries[r[0]]
		if s == nil {
			s = &plot.Series{Name: r[0]}
			bySeries[r[0]] = s
			order = append(order, r[0])
		}
		s.X = append(s.X, x)
		s.Y = append(s.Y, y)
		if x > 100000 {
			logX = true
		}
	}
	series := make([]plot.Series, 0, len(order))
	for _, name := range order {
		series = append(series, *bySeries[name])
	}
	fmt.Println(plot.Render(plot.Options{
		Title: t.Name, LogX: logX,
		XLabel: t.Header[1], YLabel: t.Header[2],
	}, series...))
}
