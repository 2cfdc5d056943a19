package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/sweep"
	"github.com/opera-net/opera/internal/telemetry"
	"github.com/opera-net/opera/internal/workload"
	"github.com/opera-net/opera/scenario"
)

// mtuBytes converts delivered payload bytes to simulated packets.
var mtuBytes = float64(sim.DefaultConfig().MTU)

// rep is what one repetition of one workload measured, in one process.
// It is the child→parent message of the process model.
type rep struct {
	Workload string
	Seed     int64

	WallS     float64 // run phase, host seconds
	Packets   float64 // delivered payload bytes / MTU
	AllocMB   float64 // runtime.MemStats.TotalAlloc delta; coordinator plus workers when sharded
	PeakRSSMB float64 // VmHWM of this process; largest worker when sharded

	Flows  int // flows attempted
	Failed int // flows not completed, plus one per scenario that errored

	P99Us       float64 // simulated: p99 FCT of the dominant class
	GoodputGbps float64 // simulated: Result.ThroughputGbps, mean over cells
	Tax         float64 // simulated: Result.AggregateTax, mean over cells
	SimEvents   uint64

	// Digest is the SHA-256 of the Results; identical inputs must give
	// identical digests, in any process, traced or not.
	Digest string
	// Errs lists failed correctness checks.
	Errs []string `json:",omitempty"`

	// SetupS holds set-up samples (setup child only).
	SetupS []float64 `json:",omitempty"`
	// Layers and Spans are filled by the traced child only.
	Layers map[string]float64 `json:",omitempty"`
	Spans  []span             `json:",omitempty"`
}

func (r *rep) failf(format string, args ...any) {
	r.Errs = append(r.Errs, fmt.Sprintf(format, args...))
}

// localRun is one spec run in-process through scenario.Collect.
type localRun struct {
	res         scenario.Result
	cl          *opera.Cluster // nil when the build failed
	setup, wall time.Duration
	// Traced runs only: time inside workload.Source.Next, and the
	// TotalAlloc delta of the spec.
	nextNs, nextCalls int64
	allocKB           float64
}

// collectSpec resolves and runs one spec. The probe's Attach timestamp
// splits Collect into set-up (spec resolution, opera.New, sources, fault
// schedule) and run. With a tracer it also records spans under parent and
// times the sources. watch, when non-nil, is attached as well.
func collectSpec(sp scenario.Spec, tr *tracer, parent int, watch scenario.Observer) localRun {
	var lr localRun
	start := time.Now()
	sc, err := sp.Scenario()
	resolved := time.Now()
	if err != nil {
		lr.res = scenario.Result{Name: sp.Name, Seed: sp.Seed, Err: err.Error()}
		return lr
	}
	runID, endRun := tr.begin("scenario.collect", parent)
	p := &probe{tr: tr, parent: runID, next: watch}
	sc.Observer = p
	if tr != nil {
		for i, build := range sc.Sources {
			sc.Sources[i] = func(env scenario.Env) workload.Source {
				src := build(env)
				if _, ok := src.(workload.Materialized); ok {
					return src // wrapping would hide the one-shot scheduling capability
				}
				return &timedSource{src: src, ns: &lr.nextNs, calls: &lr.nextCalls}
			}
		}
	}
	lr.cl, lr.res = scenario.Collect(sc)
	endRun()
	end := time.Now()
	if p.attached.IsZero() { // the build failed before the run could start
		lr.setup = end.Sub(start)
		return lr
	}
	lr.setup, lr.wall = p.attached.Sub(start), end.Sub(p.attached)
	tr.add("scenario.spec_resolve", parent, start, resolved)
	tr.add("setup", runID, resolved, p.attached)
	return lr
}

// checkResult applies the per-scenario correctness checks and counts
// attempted and failed flows.
func (r *rep) checkResult(res scenario.Result, cl *opera.Cluster) {
	if res.Err != "" {
		r.failf("%s: %s", res.Name, res.Err)
		n := res.FlowsTotal
		if n == 0 {
			n = 1
		}
		r.Flows += n
		r.Failed += n
		return
	}
	r.Flows += res.FlowsTotal
	r.Failed += res.FlowsTotal - res.FlowsDone
	if !res.Completed || res.FlowsDone != res.FlowsTotal {
		r.failf("%s: %d of %d flows done by the deadline", res.Name, res.FlowsDone, res.FlowsTotal)
	}
	if cl == nil {
		return
	}
	for _, f := range cl.Metrics().Flows() { // empty under sketch retention
		if f.Done && f.BytesRcvd != f.Size {
			r.failf("%s: flow %d received %d of %d bytes", res.Name, f.ID, f.BytesRcvd, f.Size)
			break
		}
	}
}

// summarize fills the simulated-clock metrics and the digest from the
// workload's results. pooled is the merged collector of a sharded run.
func (r *rep) summarize(w workloadDef, results []scenario.Result, pooled *telemetry.Collector) {
	for _, res := range results {
		r.GoodputGbps += res.ThroughputGbps / float64(len(results))
		r.Tax += res.AggregateTax / float64(len(results))
		r.SimEvents += res.SimEvents
	}
	switch {
	case pooled != nil:
		class := sim.ClassLowLatency
		if w.bulk {
			class = sim.ClassBulk
		}
		r.P99Us = pooled.ClassSketch(int(class)).Quantile(0.99)
	case len(results) > 0 && w.bulk:
		r.P99Us = results[0].Bulk.P99Us
	case len(results) > 0:
		r.P99Us = results[0].LowLat.P99Us
	}
	doc, err := json.Marshal(results)
	if err != nil {
		r.failf("digest: %v", err)
		return
	}
	sum := sha256.Sum256(doc)
	r.Digest = hex.EncodeToString(sum[:])
}

// runLocal runs the specs in-process, one after the other.
func runLocal(specs []scenario.Spec, tr *tracer, parent int) []localRun {
	runs := make([]localRun, len(specs))
	for i, sp := range specs {
		var m0, m1 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		runs[i] = collectSpec(sp, tr, parent, nil)
		if tr != nil {
			runtime.ReadMemStats(&m1)
			runs[i].allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3
		}
	}
	return runs
}

// absorb checks the in-process runs and adds them to the repetition.
func (r *rep) absorb(runs []localRun) []scenario.Result {
	results := make([]scenario.Result, len(runs))
	for i, lr := range runs {
		results[i] = lr.res
		r.WallS += lr.wall.Seconds()
		if lr.cl != nil {
			r.Packets += lr.cl.Metrics().DeliveredTotal() / mtuBytes
		}
		r.checkResult(lr.res, lr.cl)
	}
	return results
}

// poolCollectors decodes every collector blob and merges them in index
// order (float addition is order-sensitive in the last ulp).
func poolCollectors(blobs [][]byte, tr *tracer, parent int) (*telemetry.Collector, error) {
	var pooled *telemetry.Collector
	for i, blob := range blobs {
		if blob == nil {
			continue
		}
		col := new(telemetry.Collector)
		_, end := tr.begin("telemetry.unmarshal", parent)
		err := col.UnmarshalBinary(blob)
		end()
		if err != nil {
			return nil, fmt.Errorf("decode collector %d: %w", i, err)
		}
		if pooled == nil {
			pooled = col
			continue
		}
		_, end = tr.begin("telemetry.merge", parent)
		err = pooled.Merge(col)
		end()
		if err != nil {
			return nil, fmt.Errorf("merge collector %d: %w", i, err)
		}
	}
	return pooled, nil
}

// runSharded runs the specs through sweep.Run with exactly two worker
// processes and four shards, then decodes and merges the collectors: the
// whole streaming path is inside WallS.
func (r *rep) runSharded(specs []scenario.Spec, command sweep.CommandFunc, progress sweep.ProgressSink) (sweep.Report, *telemetry.Collector) {
	workerAlloc, err := collectWorkerAlloc()
	if err != nil {
		r.failf("worker allocation: %v", err)
		return sweep.Report{}, nil
	}
	defer func() {
		mb, err := workerAlloc()
		if err != nil {
			r.failf("worker allocation: %v", err)
		}
		r.AllocMB += mb
	}()
	start := time.Now()
	report, err := sweep.Run(context.Background(), specs,
		sweep.Options{Workers: 2, Shards: 4, Command: command, Progress: progress})
	var pooled *telemetry.Collector
	if err == nil {
		pooled, err = poolCollectors(report.Collectors, nil, 0)
	}
	r.WallS += time.Since(start).Seconds()
	if err != nil {
		r.failf("sweep: %v", err)
	}
	if len(report.Failed) > 0 || report.Rounds != 1 || len(report.WorkerErrs) > 0 {
		r.failf("sweep: failed=%v rounds=%d worker errors=%v", report.Failed, report.Rounds, report.WorkerErrs)
	}
	for _, res := range report.Results {
		r.checkResult(res, nil)
	}
	if pooled != nil {
		r.Packets += pooled.Delivered().Total() / mtuBytes
	}
	return report, pooled
}

// runRep runs one untraced repetition of w in this process. command
// launches sweep workers (nil: this binary with -worker).
func runRep(w workloadDef, seed int64, toy bool, command sweep.CommandFunc) rep {
	r := rep{Workload: w.name, Seed: seed}
	specs := w.specs(seed, toy)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var results []scenario.Result
	var pooled *telemetry.Collector
	if w.sharded {
		var report sweep.Report
		report, pooled = r.runSharded(specs, command, nil)
		results = report.Results
	} else {
		results = r.absorb(runLocal(specs, nil, 0))
	}
	runtime.ReadMemStats(&m1)
	r.AllocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	r.PeakRSSMB = peakRSSMB(w.sharded)
	r.summarize(w, results, pooled)
	return r
}

// setupPanel is how many consecutive seeds one set-up sample averages
// over. Set-up cost depends on the seed in steps — a topology realisation
// is retried until every slice is connected, so a 16-rack Opera builds in
// 2.5 ms on five seeds in eight and 5.2 ms on the rest — and the mean over
// a panel is a steadier figure than one seed's step.
const setupPanel = 8

// measureSetup builds the workload's clusters repeatedly and returns one
// set-up sample per pass: spec resolution, opera.New and installing
// sources and fault schedule, summed over the workload's specs and
// averaged over the seeds seed..seed+setupPanel-1. It makes passes until a
// second of build time or 50 passes, never fewer than 3, so that the
// first builds' page faults and heap growth do not carry the median. Each
// build is a Collect with a one-nanosecond deadline, cut at the probe.
func measureSetup(w workloadDef, seed int64, toy bool) rep {
	r := rep{Workload: w.name, Seed: seed}
	maxPasses := 50
	if toy {
		maxPasses = 3
	}
	var total time.Duration
	for n := 0; n < 3 || (n < maxPasses && total < time.Second); n++ {
		var pass time.Duration
		for s := seed; s < seed+setupPanel; s++ {
			for _, sp := range w.specs(s, toy) {
				sp.Duration = 1
				lr := collectSpec(sp, nil, 0, nil)
				if lr.res.Err != "" {
					r.failf("%s: %s", sp.Name, lr.res.Err)
					return r
				}
				pass += lr.setup
			}
		}
		total += pass
		r.SetupS = append(r.SetupS, pass.Seconds()/setupPanel)
	}
	return r
}

// workerAllocEnv names the file sweep workers append their
// MemStats.TotalAlloc to. Workers are this binary (or the test binary), so
// a sharded run's allocation can be counted in full, from outside the
// sweep protocol.
const workerAllocEnv = "OPERA_BENCH_WORKER_ALLOC"

// reportWorkerAlloc is the worker's side: one line, the bytes this
// process allocated. A single small O_APPEND write is atomic.
func reportWorkerAlloc() error {
	path := os.Getenv(workerAllocEnv)
	if path == "" {
		return nil
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, m.TotalAlloc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// collectWorkerAlloc is the coordinator's side: it points the workers
// this process starts at a fresh file under out/ and returns a func that
// sums what they reported, in MB, and removes the file.
func collectWorkerAlloc() (sumMB func() (float64, error), err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(outDir, "worker-alloc-*")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()
	if err := os.Setenv(workerAllocEnv, path); err != nil {
		return nil, err
	}
	return func() (float64, error) {
		defer os.Remove(path)
		defer os.Unsetenv(workerAllocEnv)
		doc, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		var total float64
		for _, line := range strings.Fields(string(doc)) {
			b, err := strconv.ParseFloat(line, 64)
			if err != nil {
				return 0, err
			}
			total += b
		}
		return total / 1e6, nil
	}, nil
}

// peakRSSMB reads the high-water resident set: this process's VmHWM, or
// for a sharded workload the largest worker's (RUSAGE_CHILDREN).
func peakRSSMB(children bool) float64 {
	if children {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
			return 0
		}
		return float64(ru.Maxrss) / 1e3 // Linux reports kB
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}
