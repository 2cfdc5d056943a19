// Command bench is the repository's benchmark: four workloads run through
// the surfaces users call (scenario.Collect, sweep.Run), seven end-to-end
// metrics per workload, and a traced run that attributes the cost to the
// simulator's layers from outside. README.md documents the workloads and
// metrics; BENCHMARK.json is the machine-readable contract.
//
//	go run -C bench .                       # the suite: 1 warm-up + 7 rounds
//	go run -C bench . -trace                # per-layer numbers, out/trace.json
//	go run -C bench . -seed 2 -only churn_sweep
//	go run -C bench . -compare old.json new.json
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1   # driver
//
// Every repetition runs in a child process (this binary with -run-one),
// so no repetition's heap paces another's collector and peak RSS is per
// repetition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"github.com/opera-net/opera/internal/sweep"
)

// timedRounds is the suite's repetition count per workload, after one
// discarded warm-up round.
const timedRounds = 7

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout)) }

func run(args []string, stdin io.Reader, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "driver mode: measure this one workload for -seconds, print one JSON result line last")
		seconds = fs.Int("seconds", 20, "driver mode: how long to measure")
		seed    = fs.Int64("seed", 1, "workload seed; reaches the simulator only as Spec.Seed")
		trace   = fs.Bool("trace", false, "traced run: per-layer metrics and out/trace.json instead of the end-to-end metrics")
		only    = fs.String("only", "", "suite mode: run just this workload")
		compare = fs.Bool("compare", false, "compare two results files: -compare old.json new.json")
		runOne  = fs.String("run-one", "", "internal: run one repetition of this workload here, print it as JSON")
		setup   = fs.Bool("setup", false, "internal: with -run-one, sample set-up time only")
		worker  = fs.Bool("worker", false, "internal: serve one sweep shard from stdin to stdout")
	)
	if err := fs.Parse(splitTraceValue(args)); err != nil {
		return 2
	}

	// At most one of these names a workload.
	var w workloadDef
	for _, n := range []string{*runOne, *name, *only} {
		if n == "" {
			continue
		}
		var ok bool
		if w, ok = workloadByName(n); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			return 2
		}
	}

	switch {
	case *worker:
		if err := sweep.ServeShard(stdin, stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := reportWorkerAlloc(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case *runOne != "":
		var r rep
		switch {
		case *setup:
			r = measureSetup(w, *seed, false)
		case *trace:
			r = runTraced(w, *seed, false, nil)
		default:
			r = runRep(w, *seed, false, nil)
		}
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return r.status()
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two files: old.json new.json")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case *name != "":
		return driverRun(stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace)
	}

	selected := workloads
	if *only != "" {
		selected = []workloadDef{w}
	}
	if *trace {
		return suiteTrace(stdout, selected, *seed)
	}
	return suiteRun(stdout, selected, *seed)
}

// splitTraceValue lets -trace be both the suite's boolean switch and the
// driver's "--trace 0|1": a bare 0 or 1 after it is folded into the flag,
// where the flag package would otherwise stop parsing at it.
func splitTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// status is the exit code of a repetition: non-zero when a correctness
// check failed or a flow did not complete.
func (r rep) status() int {
	if len(r.Errs) > 0 || r.Failed > 0 {
		return 1
	}
	return 0
}

// childProcs is the GOMAXPROCS every measuring child, and every sweep
// worker it starts, runs with. The simulator is single-threaded; on one P
// the collector's work lands in wall_s in full instead of on whichever
// core the shared host leaves idle, and the sharded workload runs two
// threads on two cores, not six.
const childProcs = 1

// spawn runs one repetition in a child process and decodes its report.
// A child that fails its checks still reports (and exits non-zero); only
// a child that reports nothing is an error.
func spawn(w workloadDef, seed int64, extra ...string) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	args := append([]string{"-run-one", w.name, "-seed", strconv.FormatInt(seed, 10)}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var r rep
	if err := json.Unmarshal(out, &r); err != nil {
		if runErr != nil {
			return rep{}, fmt.Errorf("%s child: %w", w.name, runErr)
		}
		return rep{}, fmt.Errorf("%s child: %w", w.name, err)
	}
	return r, nil
}

// outcome is one workload's measured run: its set-up samples and its
// timed repetitions.
type outcome struct {
	w     workloadDef
	setup []float64
	reps  []rep
}

// check applies the cross-repetition checks: every repetition clean, and
// one digest — the same input must give the same Results in every process.
func (o outcome) check() (errs []string) {
	for _, r := range o.reps {
		errs = append(errs, r.Errs...)
		if r.Digest != o.reps[0].Digest {
			errs = append(errs, fmt.Sprintf("%s: result digest differs between repetitions (%.12s vs %.12s)",
				o.w.name, r.Digest, o.reps[0].Digest))
		}
	}
	return errs
}

// flows sums attempted and failed flows over the repetitions.
func (o outcome) flows() (attempted, failed int) {
	for _, r := range o.reps {
		attempted += r.Flows
		failed += r.Failed
	}
	return attempted, failed
}

// summaries folds the repetitions into one summary per end-to-end metric.
func (o outcome) summaries() map[string]summary {
	values := map[string][]float64{"setup_s": o.setup}
	for _, r := range o.reps {
		for k, v := range r.values() {
			values[k] = append(values[k], v)
		}
	}
	out := make(map[string]summary, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = summarize(m.unit, values[m.name])
	}
	return out
}

// measured is a metric value on the driver's result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// driverRun is the driver's form: one workload, one JSON result line as
// the last line of standard output — the end-to-end medians, or with
// trace the per-layer metrics of one traced run.
func driverRun(stdout io.Writer, w workloadDef, seed int64, budget time.Duration, trace bool) int {
	measure := driverMeasure
	if trace {
		measure = driverTrace
	}
	line, errs, err := measure(stdout, w, seed, budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "bench: FAILED CHECK:", e)
	}
	line.Correct = len(errs) == 0 && line.Failed == 0
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// driverMeasure measures for the budget: the set-up child first, then
// whole repetitions (never fewer than three) while one as long as the
// longest so far still fits. The result line carries each metric's median
// over the repetitions, except the host-time metrics marked fastest, which
// carry the minimum. It also writes out/results.json, so driver runs can
// be fed to -compare.
func driverMeasure(stdout io.Writer, w workloadDef, seed int64, budget time.Duration) (driverLine, []string, error) {
	start := time.Now()
	s, err := spawn(w, seed, "-setup")
	if err != nil {
		return driverLine{}, nil, err
	}
	o := outcome{w: w, setup: s.SetupS}
	var longest time.Duration
	for len(o.reps) < 3 || time.Since(start)+longest < budget {
		repStart := time.Now()
		r, err := spawn(w, seed)
		if err != nil {
			return driverLine{}, nil, err
		}
		o.reps = append(o.reps, r)
		longest = max(longest, time.Since(repStart))
	}
	errs := append(s.Errs, o.check()...)
	line := driverLine{Metrics: make(map[string]measured, len(endToEnd))}
	line.Attempted, line.Failed = o.flows()
	sums := o.summaries()
	for _, m := range endToEnd {
		v := sums[m.name].Median
		if m.fastest {
			v = sums[m.name].Min
		}
		line.Metrics[m.name] = measured{Value: v, Unit: m.unit}
	}
	h := header(seed)
	printOutcomes(stdout, h, []outcome{o})
	if err := writeResults(h, []outcome{o}); err != nil {
		errs = append(errs, err.Error())
	}
	return line, errs, nil
}

// driverTrace runs the traced child once; the budget does not apply.
func driverTrace(stdout io.Writer, w workloadDef, seed int64, _ time.Duration) (driverLine, []string, error) {
	r, err := spawn(w, seed, "-trace")
	if err != nil {
		return driverLine{}, nil, err
	}
	errs := r.Errs
	line := driverLine{Attempted: r.Flows, Failed: r.Failed, Metrics: make(map[string]measured, len(perLayer))}
	for _, m := range perLayer {
		line.Metrics[m.name] = measured{Value: r.Layers[m.name], Unit: m.unit}
	}
	printLayers(stdout, header(seed), []rep{r})
	if err := writeTrace(r.Spans); err != nil {
		errs = append(errs, err.Error())
	}
	return line, errs, nil
}

// suiteRun is `go run -C bench .`: per workload one set-up child, then
// one discarded warm-up round and timedRounds timed rounds, round-robin
// across workloads so drift hits them all alike. It prints every
// end-to-end metric and writes out/results.json for -compare.
func suiteRun(stdout io.Writer, selected []workloadDef, seed int64) int {
	outcomes := make([]outcome, len(selected))
	for i, w := range selected {
		s, err := spawn(w, seed, "-setup")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		outcomes[i] = outcome{w: w, setup: s.SetupS}
	}
	for round := 0; round <= timedRounds; round++ {
		for i, w := range selected {
			r, err := spawn(w, seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if round == 0 {
				continue // warm-up, discarded
			}
			outcomes[i].reps = append(outcomes[i].reps, r)
		}
		fmt.Fprintf(os.Stderr, "bench: round %d/%d done\n", round, timedRounds)
	}
	h := header(seed)
	printOutcomes(stdout, h, outcomes)
	status := 0
	for _, o := range outcomes {
		for _, e := range o.check() {
			fmt.Fprintln(os.Stderr, "bench: FAILED CHECK:", e)
			status = 1
		}
		if _, failed := o.flows(); failed > 0 {
			status = 1
		}
	}
	if err := writeResults(h, outcomes); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return status
}

// suiteTrace is `go run -C bench . -trace`: each workload once more with
// tracing on, the per-layer metrics printed side by side and every span
// written to out/trace.json.
func suiteTrace(stdout io.Writer, selected []workloadDef, seed int64) int {
	var reps []rep
	var spans []span
	status := 0
	for _, w := range selected {
		r, err := spawn(w, seed, "-trace")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for _, e := range r.Errs {
			fmt.Fprintln(os.Stderr, "bench: FAILED CHECK:", e)
		}
		if r.status() != 0 {
			status = 1
		}
		spans = append(spans, r.Spans...)
		reps = append(reps, r)
	}
	printLayers(stdout, header(seed), reps)
	if err := writeTrace(spans); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return status
}

func writeJSON(name string, v any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(doc, '\n'), 0o644)
}

func writeTrace(spans []span) error { return writeJSON("trace.json", spans) }
