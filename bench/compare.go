package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare, one per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"      // beyond the metric's bound
	verdictUnchanged  = "unchanged"  // within the bound, and the runs resolve it
	verdictUnresolved = "unresolved" // the run-to-run spread is wider than the bound
)

// judge compares one metric's new runs against its old ones. worsening is
// the change of the median as a share of the old median, positive when
// the metric got worse.
func judge(m metric, old, new summary) (worsening float64, verdict string) {
	if old.Median == 0 {
		return 0, verdictUnresolved
	}
	worsening = (new.Median - old.Median) / old.Median
	if m.higher {
		worsening = -worsening
	}
	spread := max(old.spread(), new.spread())
	switch {
	case worsening > m.bound:
		return worsening, verdictWorse
	case spread > m.bound:
		// Too noisy to call unchanged — unless every new run beats every
		// old one.
		if separated(m, old.Values, new.Values) {
			return worsening, verdictBetter
		}
		return worsening, verdictUnresolved
	case -worsening > max(old.spread(), 0.01):
		// Beyond the old runs' own spread, and not a rounding-error "gain".
		return worsening, verdictBetter
	}
	return worsening, verdictUnchanged
}

// separated reports whether every new value is better than every old one.
func separated(m metric, old, new []float64) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	for _, o := range old {
		for _, n := range new {
			if (m.higher && n <= o) || (!m.higher && n >= o) {
				return false
			}
		}
	}
	return true
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	doc, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(doc, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints one row per workload and end-to-end metric — both
// medians, both quartile ranges, the ratio with its base, the verdict —
// and returns non-zero on any "worse" or a higher failed_frac.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(w, old, cur)
}

func compareResults(w io.Writer, old, cur resultsFile) int {
	fmt.Fprintf(w, "# old: %s\n# new: %s\n", old.Machine, cur.Machine)
	status := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3]\tnew median [q1, q3]\tnew/old\tbound\tverdict")
	for _, wl := range workloads {
		o, okOld := old.Workloads[wl.name]
		n, okNew := cur.Workloads[wl.name]
		if !okOld || !okNew {
			continue
		}
		for _, m := range endToEnd {
			os, ns := o.Metrics[m.name], n.Metrics[m.name]
			_, verdict := judge(m, os, ns)
			if verdict == verdictWorse {
				status = 1
			}
			ratio := 0.0
			if os.Median != 0 {
				ratio = ns.Median / os.Median
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.4f of %.6g\t%.0f%%\t%s\n",
				wl.name, m.name, m.unit, os.Median, os.Q1, os.Q3, ns.Median, ns.Q1, ns.Q3,
				ratio, os.Median, m.bound*100, verdict)
		}
		verdict := verdictUnchanged
		if n.FailedFrac > o.FailedFrac {
			verdict, status = verdictWorse, 1
		} else if n.FailedFrac < o.FailedFrac {
			verdict = verdictBetter
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\tratio\t%.6g\t%.6g\t\t0\t%s\n", wl.name, o.FailedFrac, n.FailedFrac, verdict)
		same := "identical"
		if o.Digest != n.Digest || o.SimEvents != n.SimEvents {
			same = "DIFFERENT"
		}
		fmt.Fprintf(tw, "%s\tdigest, sim_events\t\t%.12s, %d\t%.12s, %d\t\t\t%s\n",
			wl.name, o.Digest, o.SimEvents, n.Digest, n.SimEvents, same)
	}
	tw.Flush()
	return status
}
