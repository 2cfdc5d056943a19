package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sweep"
	"github.com/opera-net/opera/scenario"
)

// workerEnv turns the test binary into a sweep worker, so the sharded
// workload can run its two worker processes from inside `go test`.
const workerEnv = "OPERA_BENCH_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		os.Exit(run([]string{"-worker"}, os.Stdin, os.Stdout))
	}
	cellScale = 1 << 10
	os.Exit(m.Run())
}

func testWorker(ctx context.Context) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	return cmd
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func better(m metric) string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// BENCHMARK.json and the tables in workloads.go and metrics.go must name
// the same workloads and metrics, with the same units, directions and
// bounds, each exactly once and within the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique(w.name)
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, workloads.go {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}

	checkMetrics := func(kind string, got []manifestMetric, want []metric, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, w := range want {
			unique(w.name)
			g := got[i]
			if !unitRE.MatchString(w.unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", w.name, w.unit)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != better(w) {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, metrics.go {%s %s %s}",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, better(w))
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", w.name)
			case bounded && (g.Bound == nil || *g.Bound != w.bound):
				t.Errorf("%s: BENCHMARK.json bound %v, metrics.go %v", w.name, g.Bound, w.bound)
			case bounded && (w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", w.name, w.bound)
			}
		}
	}
	checkMetrics("end_to_end", m.EndToEnd, endToEnd, true)
	checkMetrics("per_layer", m.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].higher {
		t.Errorf("the contract wants a setup_s metric in s, lower is better")
	}
	for _, e := range endToEnd[1:] {
		if e.bound > endToEnd[0].bound {
			t.Errorf("%s: setup_s must carry the largest bound", e.name)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside [1, 60]", m.RunSeconds)
	}
}

// Every workload at toy scale, one repetition: it must pass its checks,
// emit every end-to-end metric exactly once and never as zero, and its
// traced run must emit exactly the per-layer metrics BENCHMARK.json
// names, with the traced results equal to the untraced ones.
func TestToyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := runRep(w, 1, true, testWorker)
			if r.status() != 0 {
				t.Fatalf("status %d: failed=%d errs=%v", r.status(), r.Failed, r.Errs)
			}
			if r.Flows == 0 || r.Digest == "" {
				t.Fatalf("no flows or no digest: %+v", r)
			}
			values := r.values()
			setup := measureSetup(w, 1, true)
			if len(setup.Errs) > 0 || len(setup.SetupS) < 3 {
				t.Fatalf("set-up samples %v, errs %v", setup.SetupS, setup.Errs)
			}
			values["setup_s"] = setup.SetupS[0]
			if len(values) != len(endToEnd) {
				t.Errorf("emitted %d end-to-end metrics, want %d: %v", len(values), len(endToEnd), values)
			}
			for _, m := range endToEnd {
				if v, ok := values[m.name]; !ok || v <= 0 || math.IsNaN(v) {
					t.Errorf("%s = %v (present %v), want a positive value", m.name, v, ok)
				}
			}
			if again := runRep(w, 1, true, testWorker); again.Digest != r.Digest {
				t.Errorf("two repetitions of one input gave different digests")
			}

			if testing.Short() {
				return
			}
			tr := runTraced(w, 1, true, testWorker)
			if tr.status() != 0 {
				t.Fatalf("traced status %d: %v", tr.status(), tr.Errs)
			}
			if tr.Digest != r.Digest {
				t.Errorf("traced digest differs from untraced")
			}
			if len(tr.Layers) != len(perLayer) {
				t.Errorf("traced run emitted %d per-layer metrics, want %d", len(tr.Layers), len(perLayer))
			}
			for _, m := range perLayer {
				if v, ok := tr.Layers[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", m.name, v, ok)
				}
			}
			var shares float64
			for name, v := range tr.Layers {
				if strings.HasSuffix(name, "cpu_frac") {
					shares += v
				}
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("cpu shares sum to %v, want 1", shares)
			}
			if len(tr.Spans) == 0 {
				t.Errorf("traced run recorded no spans")
			}
		})
	}
}

// A deadline too short to finish must surface as failed flows, a failed
// check and a non-zero status — the correctness checks fire.
func TestUnfinishedFlowsFail(t *testing.T) {
	w, _ := workloadByName("shuffle_clos")
	specs := w.specs
	w.specs = func(seed int64, toy bool) []scenario.Spec {
		out := specs(seed, toy)
		out[0].Duration = 20 * eventsim.Microsecond
		return out
	}
	r := runRep(w, 1, true, nil)
	o := outcome{w: w, reps: []rep{r}}
	if r.Failed == 0 || len(r.Errs) == 0 || r.status() == 0 || o.result().FailedFrac <= 0 {
		t.Fatalf("unfinished flows went unnoticed: failed=%d errs=%v status=%d", r.Failed, r.Errs, r.status())
	}
}

// -worker must serve a one-spec shard: gob ShardSpec in, one gob Frame out.
func TestWorkerRoundTrip(t *testing.T) {
	w, _ := workloadByName("churn_sweep")
	spec := w.specs(1, true)[0]
	var in, out bytes.Buffer
	if err := gob.NewEncoder(&in).Encode(sweep.ShardSpec{Indices: []int{7}, Specs: []scenario.Spec{spec}}); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-worker"}, &in, &out); code != 0 {
		t.Fatalf("-worker exited %d", code)
	}
	var f sweep.Frame
	if err := gob.NewDecoder(&out).Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.Index != 7 || f.Result.Err != "" || f.Result.FlowsDone != f.Result.FlowsTotal || f.Result.FlowsTotal == 0 || len(f.Collector) == 0 {
		t.Fatalf("frame %+v", f)
	}
}

func TestSplitTraceValue(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--workload w --seed 3 --seconds 9 --trace 1", "--workload w --seed 3 --seconds 9 --trace=1"},
		{"--trace 0 --seed 2", "--trace=0 --seed 2"},
		{"-trace -seed 2", "-trace -seed 2"},
		{"-trace", "-trace"},
	} {
		if got := strings.Join(splitTraceValue(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("splitTraceValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Quartiles must match Python's statistics.quantiles(values, n=4), which
// is how the contract reads spreads.
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize("s", []float64{4, 1, 3, 10, 7, 2, 8, 5, 9, 6})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 || s.Min != 1 {
		t.Errorf("quartiles of 1..10 = %v %v %v, min %v, want 2.75 5.5 8.25, min 1", s.Q1, s.Median, s.Q3, s.Min)
	}
	s = summarize("s", []float64{3, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", s.Q1, s.Median, s.Q3)
	}
	if one := summarize("s", []float64{5}); one.Q1 != 5 || one.Median != 5 || one.Q3 != 5 {
		t.Errorf("quartiles of one value = %+v", one)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metric{name: "wall_s", unit: "s", bound: 0.10}
	higher := metric{name: "sim_goodput_gbps", unit: "Gb/s", higher: true, bound: 0.10}
	tight := func(center float64) summary {
		return summarize("s", []float64{center * 0.99, center, center, center, center * 1.01})
	}
	noisy := func(center float64) summary {
		return summarize("s", []float64{center * 0.7, center * 0.8, center, center * 1.2, center * 1.3})
	}
	for _, c := range []struct {
		name     string
		m        metric
		old, new summary
		want     string
	}{
		{"slower beyond the bound", lower, tight(1), tight(1.2), verdictWorse},
		{"faster beyond the spread", lower, tight(1), tight(0.8), verdictBetter},
		{"within bound and spread", lower, tight(1), tight(1.005), verdictUnchanged},
		{"small worsening", lower, tight(1), tight(1.05), verdictUnchanged},
		{"noisy and overlapping", lower, noisy(1), noisy(1.02), verdictUnresolved},
		{"noisy but separated", lower, noisy(1), noisy(0.4), verdictBetter},
		{"higher is better: dropped", higher, tight(100), tight(80), verdictWorse},
		{"higher is better: rose", higher, tight(100), tight(120), verdictBetter},
	} {
		if _, got := judge(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	file := func(wall, failedFrac float64) resultsFile {
		metrics := make(map[string]summary)
		for _, m := range endToEnd {
			metrics[m.name] = tight(1)
		}
		metrics["wall_s"] = tight(wall)
		return resultsFile{Workloads: map[string]workloadResult{
			"shuffle_clos": {Metrics: metrics, FailedFrac: failedFrac, Digest: "d"},
		}}
	}
	var out bytes.Buffer
	if code := compareResults(&out, file(1, 0), file(1, 0)); code != 0 {
		t.Errorf("identical files compare as %d:\n%s", code, out.String())
	}
	if code := compareResults(&out, file(1, 0), file(1.5, 0)); code == 0 {
		t.Errorf("a 50%% slower wall_s passed -compare")
	}
	if code := compareResults(&out, file(1, 0), file(1, 0.01)); code == 0 {
		t.Errorf("a higher failed_frac passed -compare")
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "worse") {
		t.Errorf("comparison output lacks the metric rows:\n%s", out.String())
	}
}

// The stdlib profile reader must recover function names and sample
// counts from a real runtime/pprof CPU profile.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(150 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.count
		for _, fn := range s.funcs {
			found = found || strings.HasSuffix(fn, "bench.spinForProfile")
		}
	}
	if total == 0 || !found {
		t.Fatalf("parsed %d samples (%d counts); spinForProfile found: %v", len(samples), total, found)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Errorf("garbage parsed as a profile")
	}
}

//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 1.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer("w")
	base := tr.epoch
	parent := tr.add("parent", 0, base, base.Add(10*time.Millisecond))
	tr.add("child", parent, base.Add(time.Millisecond), base.Add(4*time.Millisecond))
	tr.add("child", parent, base.Add(5*time.Millisecond), base.Add(7*time.Millisecond))
	if got := tr.selfMillis("parent"); got != 5 {
		t.Errorf("parent self time = %v ms, want 5", got)
	}
	if got := tr.millis("child"); !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Errorf("child durations = %v, want [2 3]", got)
	}
	var none *tracer
	if id := none.add("x", 0, base, base); id != 0 {
		t.Errorf("nil tracer recorded a span")
	}
}
