package opera_test

import (
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// lazyProbe wraps a Source and asserts the cluster pulls it lazily: after
// the initial lookahead pull, Next may only be called once virtual time
// has reached the previously yielded arrival — i.e. the pump holds at
// most one spec of lookahead and never materializes the stream.
type lazyProbe struct {
	t     *testing.T
	cl    *opera.Cluster
	inner workload.Source

	pulls    int
	lastSpec workload.FlowSpec
	have     bool
}

func (lp *lazyProbe) Next() (workload.FlowSpec, bool) {
	lp.pulls++
	if lp.have && lp.pulls > 2 {
		if now := lp.cl.Engine().Now(); now < lp.lastSpec.Arrival {
			lp.t.Fatalf("pull %d at t=%v, before previous arrival %v: source drained eagerly",
				lp.pulls, now, lp.lastSpec.Arrival)
		}
	}
	spec, ok := lp.inner.Next()
	lp.lastSpec, lp.have = spec, ok
	return spec, ok
}

// fixedSize is the one-point flow-size distribution: every flow is
// bytes long.
func fixedSize(bytes int64) *workload.FlowSizeDist {
	return workload.MustNewFlowSizeDist("fixed", []workload.CDFAnchor{
		{Bytes: float64(bytes) * (1 - 1e-9)}, {Bytes: float64(bytes), F: 1}})
}

func steadySource(numHosts int, load float64, window eventsim.Time, seed int64) workload.Source {
	return workload.Mix(workload.PoissonConfig{
		NumHosts: numHosts,
		Load:     load,
		Duration: window,
		Seed:     seed,
	}, workload.MixComponent{Dist: fixedSize(1500), Weight: 1})
}

// A Source-driven run admits flows lazily — one pending arrival at a time
// — and leaves no pending source behind.
func TestAddSourceIsLazy(t *testing.T) {
	cl, err := opera.New(opera.KindOpera)
	if err != nil {
		t.Fatal(err)
	}
	probe := &lazyProbe{t: t, cl: cl, inner: steadySource(cl.NumHosts(), 0.01, 5*eventsim.Millisecond, 1)}
	cl.AddSource(probe)
	if cl.PendingSources() != 1 {
		t.Fatalf("PendingSources = %d, want 1", cl.PendingSources())
	}
	if !cl.RunUntilDone(200 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows done", done, total)
	}
	if cl.PendingSources() != 0 {
		t.Fatalf("PendingSources = %d after drain, want 0", cl.PendingSources())
	}
	_, total := cl.Metrics().DoneCount()
	if total == 0 {
		t.Fatal("source admitted no flows")
	}
	// pulls = flows + the final exhausted pull.
	if probe.pulls != total+1 {
		t.Fatalf("pulls = %d for %d flows; pump should hold one spec of lookahead", probe.pulls, total)
	}
}

// RunUntilDone must not declare completion during a lull: here the first
// flow finishes long before the second arrives.
func TestRunUntilDoneWaitsOutSourceLulls(t *testing.T) {
	cl, err := opera.New(opera.KindOpera)
	if err != nil {
		t.Fatal(err)
	}
	flows := []workload.FlowSpec{
		{Src: 0, Dst: 9, Bytes: 10_000, Arrival: 0},
		{Src: 3, Dst: 17, Bytes: 10_000, Arrival: 50 * eventsim.Millisecond},
	}
	i := 0
	cl.AddSource(workload.SourceFunc(func() (workload.FlowSpec, bool) {
		if i >= len(flows) {
			return workload.FlowSpec{}, false
		}
		s := flows[i]
		i++
		return s, true
	}))
	if !cl.RunUntilDone(200 * eventsim.Millisecond) {
		t.Fatal("run incomplete")
	}
	done, total := cl.Metrics().DoneCount()
	if done != 2 || total != 2 {
		t.Fatalf("done/total = %d/%d, want 2/2: the run ended during the arrival lull", done, total)
	}
}

// The acceptance soak: a steady-state Source run sustains at least 10×
// the flow count of the largest materialized workload (the 64-host full
// shuffle, 4032 flows) without ever materializing a flow list — verified
// by the lazy-pull invariant riding along.
func TestSourceSteadyStateSustains10x(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: ~45k flows of packet-level simulation")
	}
	const floor = 10 * 4032
	cl, err := opera.New(opera.KindOpera)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed 1500 B flows at 4% load over 20 ms ≈ 42.7k arrivals.
	probe := &lazyProbe{t: t, cl: cl, inner: steadySource(cl.NumHosts(), 0.04, 20*eventsim.Millisecond, 1)}
	cl.AddSource(probe)
	if !cl.RunUntilDone(400 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows done", done, total)
	}
	done, total := cl.Metrics().DoneCount()
	if total < floor {
		t.Fatalf("sustained %d flows, want >= %d (10x the 64-host shuffle)", total, floor)
	}
	if done != total {
		t.Fatalf("done %d != total %d", done, total)
	}
	if probe.pulls != total+1 {
		t.Fatalf("pulls = %d for %d flows: flow list was materialized somewhere", probe.pulls, total)
	}
}

// endlessSource streams 2 KB flows round-robin across hosts, one arrival
// every 800 ns, forever: soakSource without its end.
func endlessSource(numHosts int) workload.Source {
	i := 0
	return workload.SourceFunc(func() (workload.FlowSpec, bool) {
		src := i % numHosts
		dst := (src + 1 + (i/numHosts)%(numHosts-1)) % numHosts
		spec := workload.FlowSpec{
			Src: src, Dst: dst, Bytes: 2_000,
			Arrival: eventsim.Time(i) * 800 * eventsim.Nanosecond,
		}
		i++
		return spec, true
	})
}

// TestAllocsSourceFlowChurn is the flow-record recycling gate (CI fast
// lane, -run 'TestAllocs'): under RetainSketch a source-pumped NDP flow
// reuses a retired *sim.Flow, so once the pools are warm, each further
// arrival — admission, NDP set-up and tear-down, every packet — costs no
// allocation at all.
func TestAllocsSourceFlowChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("the race allocator counts its own allocations")
	}
	cl, err := opera.New(opera.KindOpera,
		opera.WithRetention(opera.RetainSketch(opera.SketchOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	cl.AddSource(endlessSource(cl.NumHosts()))
	cl.Run(20 * eventsim.Millisecond) // warm: pools, rings, sketch span
	doneBefore, _ := cl.Metrics().DoneCount()
	const runs = 2000
	avg := testing.AllocsPerRun(runs, func() {
		cl.Run(cl.Engine().Now() + 800*eventsim.Nanosecond) // one arrival
	})
	done, _ := cl.Metrics().DoneCount()
	if done-doneBefore < runs {
		t.Fatalf("only %d flows completed over %d arrivals: the gate measured no churn", done-doneBefore, runs+1)
	}
	if avg != 0 {
		t.Fatalf("source flow churn allocates %.0f per flow, want 0", avg)
	}
}

// The record AddFlow returns is its caller's: a RetainSketch cluster
// never hands it to a later admission, while the source pump's flows do
// reuse each other's records — NDP's and RotorLB's alike, since both
// transports reference their flows through Flow.Ref.
func TestAddFlowRecordIsNeverRecycled(t *testing.T) {
	cl, err := opera.New(opera.KindOpera,
		opera.WithRetention(opera.RetainSketch(opera.SketchOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	mine := cl.AddFlow(workload.FlowSpec{Src: 0, Dst: 9, Bytes: 2_000})
	if !cl.RunUntilDone(10 * eventsim.Millisecond) {
		t.Fatal("AddFlow's flow incomplete")
	}
	want := *mine

	// Every third pumped flow is bulk-tagged and rides RotorLB.
	seen := make(map[*sim.Flow]int64) // record → the last flow ID it carried
	reused := make(map[sim.Class]int)
	cl.Metrics().OnFlowDone = func(f *sim.Flow) {
		if f == mine {
			t.Errorf("flow %d completed in the record AddFlow returned", f.ID)
		}
		if id, ok := seen[f]; ok && id != f.ID {
			reused[f.Class]++
		}
		seen[f] = f.ID
	}
	i := 0
	base := cl.Engine().Now()
	cl.AddSource(workload.SourceFunc(func() (workload.FlowSpec, bool) {
		if i == 600 {
			return workload.FlowSpec{}, false
		}
		src := i % cl.NumHosts()
		spec := workload.FlowSpec{
			Src: src, Dst: (src + 5) % cl.NumHosts(), Bytes: 2_000, Bulk: i%3 == 0,
			Arrival: base + eventsim.Time(i)*eventsim.Microsecond,
		}
		i++
		return spec, true
	}))
	if !cl.RunUntilDone(base + 200*eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("pumped flows incomplete: %d/%d", done, total)
	}
	if *mine != want {
		t.Fatalf("AddFlow's record changed after the pump ran:\ngot  %+v\nwant %+v", *mine, want)
	}
	if reused[sim.ClassLowLatency] == 0 || reused[sim.ClassBulk] == 0 {
		t.Fatalf("records reused: %d by NDP flows, %d by bulk flows; want both", reused[sim.ClassLowLatency], reused[sim.ClassBulk])
	}
}
