package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// machine is the header every report carries, so numbers are never read
// without the box they were taken on.
type machine struct {
	Rev        string `json:"rev"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the measuring children
	Seed       int64  `json:"seed"`
}

func header(seed int64) machine {
	h := machine{Rev: "unknown", Go: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: childProcs, Seed: seed}
	// The driver's checkout is not a git repository; the revision is a
	// courtesy, not an input.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Rev = strings.TrimSpace(string(out))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

func (h machine) String() string {
	return fmt.Sprintf("rev=%s go=%s cpu=%q nproc=%d GOMAXPROCS=%d seed=%d",
		h.Rev, h.Go, h.CPU, h.NProc, h.GOMAXPROCS, h.Seed)
}

// workloadResult is one workload in out/results.json.
type workloadResult struct {
	Metrics    map[string]summary `json:"metrics"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Digest     string             `json:"digest"`
	SimEvents  uint64             `json:"sim_events"`
}

// resultsFile is out/results.json: what -compare reads.
type resultsFile struct {
	Machine   machine                   `json:"machine"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func (o outcome) result() workloadResult {
	attempted, failed := o.flows()
	wr := workloadResult{Metrics: o.summaries(), Attempted: attempted, Failed: failed}
	if attempted > 0 {
		wr.FailedFrac = float64(failed) / float64(attempted)
	}
	if len(o.reps) > 0 {
		wr.Digest, wr.SimEvents = o.reps[0].Digest, o.reps[0].SimEvents
	}
	return wr
}

func writeResults(h machine, outcomes []outcome) error {
	f := resultsFile{Machine: h, Workloads: make(map[string]workloadResult)}
	for _, o := range outcomes {
		f.Workloads[o.w.name] = o.result()
	}
	return writeJSON("results.json", f)
}

// printOutcomes prints every end-to-end metric of every workload by name
// with unit, median, quartiles, minimum and sample count, then failed_frac and the
// result digest.
func printOutcomes(w io.Writer, h machine, outcomes []outcome) {
	fmt.Fprintf(w, "# opera bench: %s\n", h)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tmin\tn")
	for _, o := range outcomes {
		wr := o.result()
		for _, m := range endToEnd {
			s := wr.Metrics[m.name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%d\n", o.w.name, m.name, m.unit, s.Median, s.Q1, s.Q3, s.Min, s.N)
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\tratio\t%.6g\t\t\t\t%d\n", o.w.name, wr.FailedFrac, wr.Attempted)
		fmt.Fprintf(tw, "%s\tdigest\t\t%.16s\t\t\t\t%d\n", o.w.name, wr.Digest, len(o.reps))
	}
	tw.Flush()
	fmt.Fprintln(w, "# host clock: setup_s wall_s ns_per_packet alloc_mb peak_rss_mb; simulated clock: sim_*")
	fmt.Fprintln(w, "# alloc_mb of the sharded workload sums coordinator and workers; its peak_rss_mb is the largest worker")
}

// printLayers prints the traced runs' per-layer metrics, one column per
// workload, then a per-span-name summary with self times.
func printLayers(w io.Writer, h machine, reps []rep) {
	fmt.Fprintf(w, "# opera bench, traced run: %s\n", h)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit")
	for _, r := range reps {
		fmt.Fprintf(tw, "\t%s", r.Workload)
	}
	fmt.Fprintln(tw)
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s", m.name, m.unit)
		for _, r := range reps {
			fmt.Fprintf(tw, "\t%.6g", r.Layers[m.name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintln(w, "# spans: count, total and self time (duration minus direct children), host ms")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tspan\tcount\ttotal_ms\tself_ms")
	for _, r := range reps {
		t := tracer{spans: r.Spans}
		names := make(map[string]bool)
		for _, s := range r.Spans {
			names[s.Name] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			d := t.millis(n)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%.3f\n", r.Workload, n, len(d), sum(d), t.selfMillis(n))
		}
	}
	tw.Flush()
}
