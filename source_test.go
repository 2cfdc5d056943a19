package opera_test

import (
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
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

func steadySource(numHosts int, load float64, window eventsim.Time, seed int64) workload.Source {
	return workload.PoissonSource(workload.PoissonConfig{
		NumHosts:     numHosts,
		Load:         load,
		LinkRateGbps: 10,
		Duration:     window,
		Dist:         workload.Fixed(1500),
		Seed:         seed,
	})
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
