package sim_test

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"

	opera "github.com/opera-net/opera"
)

// closTestbed builds a folded-Clos cluster via the public API (k=8, F=3:
// 216 hosts over 24 ToRs) and exposes its failure state.
func closTestbed(t *testing.T) (*opera.Cluster, *sim.Faults) {
	t.Helper()
	cl := newCluster(t, opera.KindFoldedClos, opera.WithClos(8, 3), opera.WithSeed(1))
	return cl, cl.Faults()
}

// crossPodFlows schedules flows between distant racks so traffic
// traverses the full ToR→agg→core→agg→ToR path.
func crossPodFlows(cl *opera.Cluster, bytes int64, stride int) {
	n := cl.NumHosts()
	for i := 0; i < n; i += 2 {
		cl.AddFlow(workload.FlowSpec{
			Src: i, Dst: (i + stride*cl.HostsPerRack()) % n, Bytes: bytes,
			Arrival: eventsim.Time(i+1) * 20 * eventsim.Microsecond,
		})
	}
}

// Flows keep completing after tier-1 link failures: ToRs spray over the
// surviving uplinks and NDP retransmits what was queued on dead cables.
func TestClosFlowsSurviveLinkFailure(t *testing.T) {
	cl, cf := closTestbed(t)
	cut(t, cf, sim.FlatLink(0, 1), 500*eventsim.Microsecond)
	cut(t, cf, sim.Target{Kind: sim.TargetLink, Tier: sim.ClosTierAgg, Switch: 2, Port: 3}, 500*eventsim.Microsecond)
	crossPodFlows(cl, 30_000, 13)
	if !cl.RunUntilDone(3000 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows survived link failures", done, total)
	}
}

// An aggregation-switch failure drains its queues and removes one of the
// pod's upward paths; spraying over the surviving aggs keeps every flow
// completing, and recovery restores the switch.
func TestClosAggFailureAndRecovery(t *testing.T) {
	cl, cf := closTestbed(t)
	mustOK(t, cf.Inject(sim.TierSwitchTarget(sim.ClosTierAgg, 0), sim.DownFault(), 500*eventsim.Microsecond))
	mustOK(t, cf.Recover(sim.TierSwitchTarget(sim.ClosTierAgg, 0), 20*eventsim.Millisecond))
	crossPodFlows(cl, 30_000, 13)
	if !cl.RunUntilDone(3000 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows survived the agg failure", done, total)
	}
}

// A core-switch failure: aggs stop spraying onto it, packets already
// heading down through it are dropped and retransmitted.
func TestClosCoreFailure(t *testing.T) {
	cl, cf := closTestbed(t)
	mustOK(t, cf.Inject(sim.TierSwitchTarget(sim.ClosTierCore, 3), sim.DownFault(), 500*eventsim.Microsecond))
	crossPodFlows(cl, 30_000, 13)
	if !cl.RunUntilDone(3000 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows survived the core failure", done, total)
	}
	if cf.Lost == 0 {
		t.Log("no packets caught in the dead core (timing-dependent; informational)")
	}
}

// A dead ToR takes its rack off the fabric; the rest of the cluster
// keeps working.
func TestClosToRFailureIsolatesRack(t *testing.T) {
	cl, cf := closTestbed(t)
	mustOK(t, cf.Inject(sim.ToRTarget(3), sim.DownFault(), 500*eventsim.Microsecond))
	n, d := cl.NumHosts(), cl.HostsPerRack()
	for i := 0; i < n; i += 2 {
		src, dst := i, (i+13*d)%n
		if src/d == 3 || dst/d == 3 {
			continue // skip the doomed rack
		}
		cl.AddFlow(workload.FlowSpec{
			Src: src, Dst: dst, Bytes: 20_000,
			Arrival: eventsim.Time(i+1) * 20 * eventsim.Microsecond,
		})
	}
	if !cl.RunUntilDone(3000 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows completed around the dead ToR", done, total)
	}
}

// Determinism: the same Clos failure schedule over the same workload
// yields identical outcomes run-to-run.
func TestClosFaultDeterminism(t *testing.T) {
	run := func() (int, uint64) {
		cl, cf := closTestbed(t)
		mustOK(t, cf.Inject(sim.TierSwitchTarget(sim.ClosTierAgg, 1), sim.DownFault(), 700*eventsim.Microsecond))
		mustOK(t, cf.Inject(sim.FlatLink(5, 0), sim.DownFault(), 900*eventsim.Microsecond))
		cl.AddSource(workload.FromSpecs(workload.Shuffle(12, 25_000, eventsim.Millisecond, 1)))
		cl.RunUntilDone(3000 * eventsim.Millisecond)
		done, _ := cl.Metrics().DoneCount()
		return done, cl.Engine().Steps()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("fault runs diverge: (%d,%d) vs (%d,%d)", d1, s1, d2, s2)
	}
}

// Attaching an idle injector must not change a fault-free run: the
// fault-aware spray consumes RNG draws identically while nothing is
// down (byte-identity of pre-injector results).
func TestClosIdleInjectorPreservesDeterminism(t *testing.T) {
	run := func(attach bool) (int, uint64) {
		cl := newCluster(t, opera.KindFoldedClos, opera.WithClos(8, 3), opera.WithSeed(1))
		if attach {
			cl.Network().(*sim.ClosNet).Faults()
		}
		cl.AddSource(workload.FromSpecs(workload.Shuffle(16, 25_000, eventsim.Millisecond, 1)))
		cl.RunUntilDone(3000 * eventsim.Millisecond)
		done, _ := cl.Metrics().DoneCount()
		return done, cl.Engine().Steps()
	}
	d1, s1 := run(false)
	d2, s2 := run(true)
	if d1 != d2 || s1 != s2 {
		t.Fatalf("idle injector changed the run: (%d,%d) vs (%d,%d)", d1, s1, d2, s2)
	}
}
