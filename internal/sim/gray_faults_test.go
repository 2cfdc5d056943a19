package sim_test

import (
	"math"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"

	opera "github.com/opera-net/opera"
)

// Gray failures: lossy, degraded and flapping links through the
// structured injector, observed at the impaired ports.

// txPackets sums a port's transmitted packets across service classes.
func txPackets(pt *sim.Port) uint64 {
	var n uint64
	for _, c := range []sim.Class{sim.ClassControl, sim.ClassLowLatency, sim.ClassBulk} {
		n += pt.Stats.Tx[c].Packets
	}
	return n
}

// At loss rate 1.0 the accounting bound is exact: the loss draw runs
// after the Tx counter update, so every packet transmitted on the
// impaired port is counted lost — LinkLoss == Tx, no slack.
func TestLossyLinkExactLossAccounting(t *testing.T) {
	cl, fs := failureTestbed(t)
	mustOK(t, fs.Inject(sim.FlatLink(2, 1), sim.Fault{Kind: sim.FaultLossy, Rate: 1.0}, 0))
	cl.AddSource(workload.FromSpecs(workload.Shuffle(16, 25_000, eventsim.Millisecond, 1)))
	cl.Run(5 * eventsim.Millisecond)
	pt := cl.OperaNet().ToR(2).Uplink(1)
	tx, lost := txPackets(pt), pt.Stats.LinkLoss
	if tx == 0 {
		t.Fatal("impaired uplink carried no traffic; test is vacuous")
	}
	if lost != tx {
		t.Fatalf("LinkLoss = %d, want exactly Tx = %d at rate 1.0", lost, tx)
	}
}

// At rate 0.5 losses follow the seeded per-link generator: the observed
// fraction sits inside a wide binomial bound, and a rerun reproduces the
// byte-identical count (determinism of the gray draw stream).
func TestLossyLinkStatisticalBoundAndDeterminism(t *testing.T) {
	run := func() (tx, lost uint64) {
		cl, fs := failureTestbed(t)
		mustOK(t, fs.Inject(sim.FlatLink(2, 1), sim.Fault{Kind: sim.FaultLossy, Rate: 0.5}, 0))
		cl.AddSource(workload.FromSpecs(workload.Shuffle(16, 25_000, eventsim.Millisecond, 1)))
		cl.Run(5 * eventsim.Millisecond)
		pt := cl.OperaNet().ToR(2).Uplink(1)
		return txPackets(pt), pt.Stats.LinkLoss
	}
	tx, lost := run()
	if tx < 100 {
		t.Fatalf("only %d packets crossed the lossy uplink; not enough signal", tx)
	}
	frac := float64(lost) / float64(tx)
	// 5-sigma binomial bound around p = 0.5.
	margin := 5 * math.Sqrt(0.25/float64(tx))
	if math.Abs(frac-0.5) > margin {
		t.Fatalf("loss fraction %.4f outside %.4f ± %.4f (%d/%d)", frac, 0.5, margin, lost, tx)
	}
	tx2, lost2 := run()
	if tx2 != tx || lost2 != lost {
		t.Fatalf("lossy run not deterministic: (%d,%d) vs (%d,%d)", tx, lost, tx2, lost2)
	}
}

// A degraded link stays up — flows complete with zero link loss — but
// the rack behind it finishes measurably later than at full rate.
func TestDegradedLinkFaultSlowsButDelivers(t *testing.T) {
	run := func(derate bool) float64 {
		cl, fs := failureTestbed(t)
		if derate {
			for sw := 0; sw < 4; sw++ {
				mustOK(t, fs.Inject(sim.FlatLink(0, sw), sim.Fault{Kind: sim.FaultDegraded, RateFraction: 0.25}, 0))
			}
		}
		d := cl.HostsPerRack()
		for i := 0; i < d; i++ {
			cl.AddFlow(workload.FlowSpec{
				Src: i, Dst: 9*d + i, Bytes: 200_000,
				Arrival: 10 * eventsim.Microsecond,
			})
		}
		if !cl.RunUntilDone(3000 * eventsim.Millisecond) {
			done, total := cl.Metrics().DoneCount()
			t.Fatalf("degraded=%v: only %d/%d flows done", derate, done, total)
		}
		if derate {
			for sw := 0; sw < 4; sw++ {
				if loss := cl.OperaNet().ToR(0).Uplink(sw).Stats.LinkLoss; loss != 0 {
					t.Fatalf("degraded link should not lose packets, uplink %d lost %d", sw, loss)
				}
			}
		}
		return cl.Metrics().FCTSample(nil).Max()
	}
	healthy, degraded := run(false), run(true)
	if !(degraded > healthy) {
		t.Fatalf("degraded max FCT %.0f ns should exceed healthy %.0f ns", degraded, healthy)
	}
}

// A flapping link alternates down/up phases on schedule, and Recover
// cancels the cycle, pinning the link up and clearing the fault listing —
// under either of the cable's names: on the expander FlatLink(2, 0) and
// FlatLink(1, 3) are one cable seen from its two ends.
func TestFlappingLinkCycleAndRecovery(t *testing.T) {
	cases := []struct {
		name             string
		testbed          func(*testing.T) (*opera.Cluster, *sim.Faults)
		inject, recovery sim.Target
	}{
		{"opera", failureTestbed, sim.FlatLink(4, 2), sim.FlatLink(4, 2)},
		{"expander-other-end", expanderTestbed, sim.FlatLink(2, 0), sim.FlatLink(1, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, fs := tc.testbed(t)
			if en, ok := cl.Network().(*sim.ExpanderNet); ok {
				adj := en.Topology().Adj
				if adj[2][0] != 1 || adj[1][3] != 2 {
					t.Fatal("testbed changed: (2,0) and (1,3) no longer name one cable")
				}
			}
			rack, up := tc.inject.Switch, tc.inject.Port
			mustOK(t, fs.Inject(tc.inject, sim.Fault{Kind: sim.FaultFlapping, Up: eventsim.Millisecond, Down: eventsim.Millisecond}, 0))
			// Cycle: down at 0, up at 1 ms, down at 2 ms, …
			steps := []struct {
				at eventsim.Time
				up bool
			}{
				{500 * eventsim.Microsecond, false},
				{1500 * eventsim.Microsecond, true},
				{2500 * eventsim.Microsecond, false},
			}
			for _, s := range steps {
				cl.Run(s.at)
				if got := fs.LinkUp(rack, up); got != s.up {
					t.Fatalf("at %v: LinkUp = %v, want %v", s.at, got, s.up)
				}
			}
			mustOK(t, fs.Recover(tc.recovery, 3200*eventsim.Microsecond))
			// Both instants fall in down phases of the uncancelled cycle.
			for _, at := range []eventsim.Time{4500 * eventsim.Microsecond, 6500 * eventsim.Microsecond} {
				cl.Run(at)
				if !fs.LinkUp(rack, up) {
					t.Fatalf("at %v: link should stay up after Recover cancelled the flap", at)
				}
			}
			if got := fs.ActiveFaults(); got != nil {
				t.Fatalf("recovered flap still listed: %v", got)
			}
		})
	}
}

// Gray kinds reach every fabric's ports through the shared core: the
// folded Clos takes a lossy tier-2 cable and a flapping tier-1 cable.
func TestClosGrayFaultsApply(t *testing.T) {
	cl, cf := closTestbed(t)
	mustOK(t, cf.Inject(sim.Target{Kind: sim.TargetLink, Tier: sim.ClosTierAgg, Switch: 0, Port: 0},
		sim.Fault{Kind: sim.FaultLossy, Rate: 1.0}, 0))
	mustOK(t, cf.Inject(sim.FlatLink(0, 1),
		sim.Fault{Kind: sim.FaultFlapping, Up: 500 * eventsim.Microsecond, Down: 500 * eventsim.Microsecond}, 0))
	crossPodFlows(cl, 30_000, 13)
	if !cl.RunUntilDone(3000 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows survived gray faults", done, total)
	}
}

// A streaming run through a lossy link and a flapping one — lost data,
// lost ACKs and pulls, queues dropped at every flap, retransmits and
// straggler re-ACKs — ends, once drained, with every recycled flow record
// let go by everything that pointed at it: each retired record's
// reference count is back at exactly zero.
func TestLossyFlappingDrainReleasesEveryFlowRef(t *testing.T) {
	cl := newCluster(t, opera.KindOpera, opera.WithSeed(1),
		opera.WithRetention(opera.RetainSketch(opera.SketchOptions{})))
	fs := cl.Faults()
	mustOK(t, fs.Inject(sim.FlatLink(2, 1), sim.Fault{Kind: sim.FaultLossy, Rate: 0.2}, 0))
	mustOK(t, fs.Inject(sim.FlatLink(5, 0), sim.Fault{Kind: sim.FaultLossy, Rate: 0.2}, 0))
	mustOK(t, fs.Inject(sim.FlatLink(3, 2),
		sim.Fault{Kind: sim.FaultFlapping, Up: 300 * eventsim.Microsecond, Down: 200 * eventsim.Microsecond}, 0))
	mustOK(t, fs.Recover(sim.FlatLink(3, 2), 4*eventsim.Millisecond))
	fixed := workload.MustNewFlowSizeDist("fixed", []workload.CDFAnchor{
		{Bytes: 6000 * (1 - 1e-9)}, {Bytes: 6000, F: 1}})
	cl.AddSource(workload.Mix(workload.PoissonConfig{
		NumHosts:     cl.NumHosts(),
		Load:         0.2,
		LinkRateGbps: 10,
		Duration:     3 * eventsim.Millisecond,
		Seed:         1,
	}, workload.MixComponent{Dist: fixed, Weight: 1}))
	if !cl.RunUntilDone(200 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows done", done, total)
	}
	cl.Stop()
	cl.Engine().Run()

	lost := cl.OperaNet().ToR(2).Uplink(1).Stats.LinkLoss + cl.OperaNet().ToR(5).Uplink(0).Stats.LinkLoss
	if lost == 0 || fs.Lost == 0 {
		t.Fatalf("link loss %d, flap drops %d: the run exercised no loss", lost, fs.Lost)
	}
	waiting, free := sim.RetiredFlowRefs(cl.Metrics())
	if len(waiting)+free == 0 {
		t.Fatal("no flow record was retired: the source pump drew none from Metrics")
	}
	for i, refs := range waiting {
		if refs != 0 {
			t.Fatalf("retired record %d of %d still has %d references after the drain", i, len(waiting), refs)
		}
	}
}
