package sweep

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/experiments"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/scenario"
)

// workerEnv flips the test binary into worker mode: TestMain intercepts
// it before any test runs, so the coordinator tests can launch their own
// binary as the shard subprocess (the standard helper-process pattern).
const workerEnv = "OPERA_SWEEP_WORKER"

// crashEnv makes a test worker die mid-shard: set to n, the worker exits
// hard (simulating a crash) once it has emitted n frames. The retry tests
// use it to kill a shard mid-sweep and prove the merged output still
// matches a local run.
const crashEnv = "OPERA_SWEEP_TEST_CRASH_AFTER"

// delayEnv makes a test worker sleep for the given duration before it
// serves its shard. The determinism tests delay the first-launched worker
// so the shards complete out of dispatch order.
const delayEnv = "OPERA_SWEEP_TEST_DELAY"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if d, err := time.ParseDuration(os.Getenv(delayEnv)); err == nil {
			time.Sleep(d)
		}
		var in io.Reader = os.Stdin
		crash := false
		if s := os.Getenv(crashEnv); s != "" {
			in, crash = truncateShard(os.Stdin, s)
		}
		if err := ServeShard(in, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if crash {
			os.Exit(3)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// truncateShard is the crashing worker's input: the shard read from r cut
// to its first n specs, re-encoded for ServeShard — so the frames a dying
// worker does emit come off the production path — and whether anything
// was cut, i.e. whether the worker dies before finishing.
func truncateShard(r io.Reader, n string) (io.Reader, bool) {
	after, err := strconv.Atoi(n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad %s: %v\n", crashEnv, err)
		os.Exit(1)
	}
	var shard ShardSpec
	if err := gob.NewDecoder(r).Decode(&shard); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	crash := after < len(shard.Specs)
	if crash {
		shard.Indices, shard.Specs = shard.Indices[:after], shard.Specs[:after]
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(shard); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return &buf, crash
}

// testWorker launches this test binary in worker mode.
func testWorker(ctx context.Context) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	return cmd
}

// firstWorkerWith wraps testWorker so exactly one launched process, the
// first, runs with the extra environment entry env.
func firstWorkerWith(env string) (CommandFunc, *atomic.Bool) {
	var fired atomic.Bool
	return func(ctx context.Context) *exec.Cmd {
		cmd := testWorker(ctx)
		if fired.CompareAndSwap(false, true) {
			cmd.Env = append(cmd.Env, env)
		}
		return cmd
	}, &fired
}

// crashOnce makes exactly one launched process crash after emitting
// `after` frames — a shard dying mid-sweep.
func crashOnce(after int) (CommandFunc, *atomic.Bool) {
	return firstWorkerWith(crashEnv + "=" + strconv.Itoa(after))
}

// slowFirst delays the first launched worker, so the shard dispatched
// first completes last.
func slowFirst() CommandFunc {
	cmd, _ := firstWorkerWith(delayEnv + "=500ms")
	return cmd
}

// crashAlways makes every worker exit before its first frame.
func crashAlways(ctx context.Context) *exec.Cmd {
	cmd := testWorker(ctx)
	cmd.Env = append(cmd.Env, crashEnv+"=0")
	return cmd
}

// testGrid is a sweep small enough to run many times per test binary:
// one network, one load, four seed replicas, 2 ms arrival window.
func testGrid() Grid {
	return Grid{
		Networks:     []string{"opera"},
		Workload:     "websearch",
		Loads:        []float64{0.05},
		DurationMs:   2,
		DrainFactor:  8,
		MaxFlowBytes: 500_000,
		Replicas:     4,
		Sketch:       true,
	}
}

// mustCSV renders the sweep tables and concatenates their CSV text.
func mustCSV(t *testing.T, g Grid, rep Report) string {
	t.Helper()
	specs, cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	tables, err := Tables(g, specs, cells, rep)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Name)
		b.WriteByte('\n')
		b.WriteString(tb.CSV())
	}
	return b.String()
}

// TestShardedMatchesLocal is the subsystem's core determinism claim:
// the same grid run in-process, sharded across one worker, and sharded
// across four workers whose first shard completes last yields per-index
// equal Results, equal collector blobs, and byte-identical CSV tables.
func TestShardedMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns packet-level worker processes")
	}
	g := testGrid()
	specs, _, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}

	local, err := RunLocal(context.Background(), specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Failed) > 0 {
		t.Fatalf("local run failed cells: %v", local.Failed)
	}

	one, err := Run(context.Background(), specs, Options{Workers: 1, Command: testWorker})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(context.Background(), specs, Options{Workers: 4, Shards: 4, Command: slowFirst()})
	if err != nil {
		t.Fatal(err)
	}

	for name, rep := range map[string]Report{"workers=1": one, "workers=4": four} {
		if len(rep.Failed) > 0 {
			t.Fatalf("%s: failed cells %v: %v", name, rep.Failed, rep.WorkerErrs)
		}
		for i := range specs {
			if !rep.Results[i].Equal(local.Results[i]) {
				t.Errorf("%s: result %d differs from local:\ngot  %+v\nwant %+v",
					name, i, rep.Results[i], local.Results[i])
			}
			if !bytes.Equal(rep.Collectors[i], local.Collectors[i]) {
				t.Errorf("%s: collector blob %d differs from local", name, i)
			}
		}
		if got, want := mustCSV(t, g, rep), mustCSV(t, g, local); got != want {
			t.Errorf("%s: merged CSVs differ from local run:\n%s\n--- want ---\n%s", name, got, want)
		}
	}
}

// TestFaultedSweepShardedMatchesLocal: a grid carrying a fault schedule
// — random cable cuts plus a lossy gray link, the failure figures' shape
// — still shards byte-identically. The EventSpec list rides the gob wire
// with the rest of each Spec, so every worker injects the same faults at
// the same virtual times.
func TestFaultedSweepShardedMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns packet-level worker processes")
	}
	g := testGrid()
	g.Replicas = 2
	g.Events = []scenario.EventSpec{
		{At: 500 * eventsim.Microsecond, Op: "fail-random-links", Fraction: 0.05},
		{At: 700 * eventsim.Microsecond,
			Target: sim.Target{Kind: "link", Switch: 2, Port: 1},
			Fault:  sim.Fault{Kind: "lossy", Rate: 0.3}},
	}
	specs, _, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}

	local, err := RunLocal(context.Background(), specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Failed) > 0 {
		t.Fatalf("local faulted run failed cells: %v", local.Failed)
	}

	one, err := Run(context.Background(), specs, Options{Workers: 1, Command: testWorker})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(context.Background(), specs, Options{Workers: 4, Shards: 4, Command: slowFirst()})
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]Report{"workers=1": one, "workers=4": four} {
		if len(rep.Failed) > 0 {
			t.Fatalf("%s: failed cells %v: %v", name, rep.Failed, rep.WorkerErrs)
		}
		for i := range specs {
			if !rep.Results[i].Equal(local.Results[i]) {
				t.Errorf("%s: faulted result %d differs from local", name, i)
			}
			if !bytes.Equal(rep.Collectors[i], local.Collectors[i]) {
				t.Errorf("%s: faulted collector blob %d differs from local", name, i)
			}
		}
		if got, want := mustCSV(t, g, rep), mustCSV(t, g, local); got != want {
			t.Errorf("%s: faulted merged CSVs differ from local run", name)
		}
	}
}

// TestWorkerCrashRetry kills one worker mid-shard and checks the retry
// rounds re-dispatch exactly the missing scenarios: the merged report is
// still byte-identical to a local run, with the crash surfaced in
// WorkerErrs rather than in the results.
func TestWorkerCrashRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns packet-level worker processes")
	}
	g := testGrid()
	specs, _, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunLocal(context.Background(), specs, 0)
	if err != nil {
		t.Fatal(err)
	}

	cmd, fired := crashOnce(1) // die after banking one result
	rep, err := Run(context.Background(), specs, Options{
		Workers: 2, Shards: 2, Retries: 3, Command: cmd,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("crash injection never armed a worker")
	}
	if len(rep.Failed) > 0 {
		t.Fatalf("failed cells after retries: %v (%v)", rep.Failed, rep.WorkerErrs)
	}
	if rep.Rounds < 2 {
		t.Fatalf("crash did not force a retry round: rounds=%d errs=%v", rep.Rounds, rep.WorkerErrs)
	}
	if len(rep.WorkerErrs) == 0 {
		t.Fatal("crashed shard left no diagnostic")
	}
	for i := range specs {
		if !rep.Results[i].Equal(local.Results[i]) {
			t.Fatalf("result %d differs from local after crash+retry", i)
		}
	}
	if got, want := mustCSV(t, g, rep), mustCSV(t, g, local); got != want {
		t.Fatalf("merged CSVs differ from local run after crash+retry")
	}
}

// TestRetriesExhausted: when every attempt crashes, the sweep reports
// the missing cells instead of spinning or erroring out.
func TestRetriesExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := testGrid()
	g.Replicas = 2
	specs, _, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), specs, Options{
		Workers: 2, Retries: 1, Command: crashAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2 (first dispatch + one retry)", rep.Rounds)
	}
	if len(rep.Failed) != len(specs) {
		t.Fatalf("failed = %v, want all %d specs", rep.Failed, len(specs))
	}
	for i, r := range rep.Results {
		if r.Err == "" {
			t.Errorf("result %d carries no error", i)
		}
		if r.Name != specs[i].Name {
			t.Errorf("result %d lost its spec name: %q", i, r.Name)
		}
	}
	if len(rep.WorkerErrs) == 0 {
		t.Fatal("no worker diagnostics recorded")
	}
	// Partial failure still renders: failed rows keep name/seed and the
	// error column.
	if !strings.Contains(mustCSV(t, g, rep), "not delivered") {
		t.Fatal("failed cells not surfaced in the results table")
	}
}

// TestWorkerTimeout: a hung worker is killed at Timeout and its shard
// counted missing.
func TestWorkerTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g := testGrid()
	g.Replicas = 1
	specs, _, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := Run(context.Background(), specs, Options{
		Workers: 1, Retries: 0, Timeout: 100 * time.Millisecond,
		Command: func(ctx context.Context) *exec.Cmd {
			return exec.CommandContext(ctx, "sleep", "60")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("timeout did not bound the attempt: %v", elapsed)
	}
	if len(rep.Failed) != len(specs) {
		t.Fatalf("failed = %v, want all %d specs", rep.Failed, len(specs))
	}
	if len(rep.WorkerErrs) == 0 {
		t.Fatal("timed-out shard left no diagnostic")
	}
}

// TestSourceErrorReachesTheReport: a cell whose trace is malformed — a bad
// line, a host outside the cluster — or does not resolve at all is
// delivered with a named Result.Err, in-process and through a worker
// shard alike, beside a healthy cell that completes. Failed runs are
// delivered results, not undelivered cells, so Report.Failed stays empty.
func TestSourceErrorReachesTheReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	dir := t.TempDir()
	replay := func(name, trace string) scenario.Spec {
		path := dir + "/" + name + ".txt"
		if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		return scenario.Spec{Name: name, Network: "opera", Duration: eventsim.Millisecond,
			Sources: []scenario.SourceSpec{{Type: "replay", Path: path}}}
	}
	specs := []scenario.Spec{
		replay("good", "0 0 5 1000\n"),
		replay("bad-line", "0 0 5 1000\nbogus line\n"),
		replay("bad-host", "0 0 5 1000\n10 1 9999 500\n"),
		{Name: "hostile-load", Network: "opera", Duration: eventsim.Millisecond,
			Sources: []scenario.SourceSpec{{Type: "poisson", Dist: "websearch", Load: 1e300, Window: eventsim.Millisecond}}},
	}
	want := []string{"", "trace line 2", "outside cluster with 64 hosts", "exceeds MaxLoad"}

	local, err := RunLocal(context.Background(), specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(context.Background(), specs, Options{Workers: 2, Command: testWorker})
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]Report{"local": local, "sharded": sharded} {
		if len(rep.Failed) != 0 {
			t.Errorf("%s: failed = %v, want every cell delivered", name, rep.Failed)
		}
		for i, r := range rep.Results {
			if want[i] == "" {
				if r.Err != "" || !r.Completed || r.FlowsDone != 1 {
					t.Errorf("%s: healthy cell: %+v", name, r)
				}
			} else if !strings.Contains(r.Err, want[i]) || r.Completed {
				t.Errorf("%s: %s: Err = %q (completed=%v), want it to contain %q", name, specs[i].Name, r.Err, r.Completed, want[i])
			}
			if !r.Equal(local.Results[i]) {
				t.Errorf("%s: %s differs from the in-process result:\ngot  %+v\nwant %+v", name, specs[i].Name, r, local.Results[i])
			}
		}
	}
}

func TestPartition(t *testing.T) {
	idx := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i * 10
		}
		return out
	}
	for _, tc := range []struct {
		n, shards int
		want      [][]int
	}{
		{0, 4, nil},
		{1, 4, [][]int{{0}}},
		{4, 2, [][]int{{0, 10}, {20, 30}}},
		{5, 2, [][]int{{0, 10}, {20, 30, 40}}},
		{3, 5, [][]int{{0}, {10}, {20}}},
		{4, 0, [][]int{{0, 10, 20, 30}}},
	} {
		got := partition(idx(tc.n), tc.shards)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("partition(%d items, %d shards) = %v, want %v", tc.n, tc.shards, got, tc.want)
		}
	}
	// Every index appears exactly once regardless of shard count.
	in := idx(17)
	var flat []int
	for _, s := range partition(in, 5) {
		flat = append(flat, s...)
	}
	if !reflect.DeepEqual(flat, in) {
		t.Fatalf("partition dropped or reordered indices: %v", flat)
	}
}

func TestGridExpand(t *testing.T) {
	g := Grid{
		Networks: []string{"opera", "expander"},
		Loads:    []float64{0.1, 0.25},
		Replicas: 3,
		Seed:     5,
		Sketch:   true,
	}
	specs, cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 12 || len(cells) != 4 {
		t.Fatalf("got %d specs, %d cells; want 12, 4", len(specs), len(cells))
	}
	names := map[string]bool{}
	next := 0
	for _, c := range cells {
		if len(c.Indices) != 3 {
			t.Fatalf("cell %s/%g has %d replicas, want 3", c.Network, c.Load, len(c.Indices))
		}
		for r, i := range c.Indices {
			if i != next {
				t.Fatalf("cell indices not in expansion order: got %d, want %d", i, next)
			}
			next++
			sp := specs[i]
			if sp.Seed != 5+int64(r) {
				t.Errorf("%s replica %d: seed %d, want %d", sp.Name, r, sp.Seed, 5+int64(r))
			}
			if sp.Network != c.Network || !sp.Retention.Sketch {
				t.Errorf("spec %d does not match its cell: %+v", i, sp)
			}
			if names[sp.Name] {
				t.Errorf("duplicate spec name %q", sp.Name)
			}
			names[sp.Name] = true
		}
	}
	// The expander cells use the cost-equivalent sizing.
	for _, sp := range specs {
		if sp.Network == "expander" && sp.Uplinks != experiments.SmallScale().ExpDegree {
			t.Errorf("expander spec %q kept rotor sizing", sp.Name)
		}
	}
}

func TestGridExpandErrors(t *testing.T) {
	for name, g := range map[string]Grid{
		"bad-scale":    {Scale: "medium"},
		"bad-workload": {Workload: "uniform"},
		"bad-network":  {Networks: []string{"torus"}},
		"bad-load":     {Loads: []float64{-0.1}},
		"bad-duration": {DurationMs: -1},
	} {
		if _, _, err := g.Expand(); err == nil {
			t.Errorf("%s: Expand succeeded, want error", name)
		}
	}
}

func TestMeanCI95(t *testing.T) {
	// xs = {1,2,3,4}: mean 2.5, sd sqrt(5/3), df 3 → t 3.182.
	mean, half := meanCI95([]float64{1, 2, 3, 4})
	if mean != 2.5 {
		t.Fatalf("mean = %v, want 2.5", mean)
	}
	want := 3.182 * 0.6454972243679028 // t * sd/sqrt(n)
	if diff := half - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ci half-width = %v, want %v", half, want)
	}
	if _, h := meanCI95([]float64{7}); h != 0 {
		t.Fatalf("single sample produced an interval: %v", h)
	}
	if m, h := meanCI95(nil); m != 0 || h != 0 {
		t.Fatalf("empty sample produced %v ± %v", m, h)
	}
}

func TestTValue95(t *testing.T) {
	for df, want := range map[int]float64{
		1: 12.706, 3: 3.182, 30: 2.042,
		35: 2.042, // rounds down to df 30
		50: 2.021, 1000: 1.960,
	} {
		if got := tValue95(df); got != want {
			t.Errorf("tValue95(%d) = %v, want %v", df, got, want)
		}
	}
}
