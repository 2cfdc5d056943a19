package sim_test

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"

	opera "github.com/opera-net/opera"
)

// rotorTestbed builds a small RotorNet cluster via the public API so
// RotorLB (and, for the hybrid, NDP) attach, and exposes its fault state.
func rotorTestbed(t *testing.T, kind opera.Kind) (*opera.Cluster, *sim.Faults) {
	t.Helper()
	cl := newCluster(t, kind,
		opera.WithRacks(8), opera.WithHostsPerRack(2), opera.WithUplinks(4), opera.WithSeed(1))
	return cl, cl.Faults()
}

func TestRotorNetFaultInjectorExposed(t *testing.T) {
	for _, kind := range []opera.Kind{opera.KindRotorNet, opera.KindRotorNetHybrid} {
		cl, _ := rotorTestbed(t, kind)
		if cl.Faults() == nil {
			t.Fatalf("%v cluster should expose a fault injector", kind)
		}
	}
	// The folded Clos exposes one too, on multi-tier link coordinates.
	clos, err := opera.New(opera.KindFoldedClos)
	if err != nil {
		t.Fatal(err)
	}
	if clos.Faults() == nil {
		t.Fatal("folded Clos should expose a fault injector")
	}
}

// addBulkPairs schedules one bulk flow from every host to its counterpart
// five racks over, staggered to avoid a synchronized burst.
func addBulkPairs(cl *opera.Cluster, bytes int64) {
	n := cl.NumHosts()
	for i := 0; i < n; i++ {
		cl.AddBulkFlow(workload.FlowSpec{
			Src: i, Dst: (i + 5*cl.HostsPerRack()) % n, Bytes: bytes,
			Arrival: eventsim.Time(i+1) * 50 * eventsim.Microsecond,
		})
	}
}

// Bulk keeps completing after link failures: the direct circuit of an
// affected pair is vetoed (instant OOB knowledge), so RotorLB offloads
// the bytes over two-hop VLB paths through surviving circuits. The
// failures precede the first arrival: bytes already stored at a VLB relay
// when the relay's second leg dies wait for recovery instead (RotorLB has
// no re-offload of stored relay traffic — same model as Opera).
func TestRotorNetBulkSurvivesLinkFailures(t *testing.T) {
	cl, rf := rotorTestbed(t, opera.KindRotorNet)
	cut(t, rf, sim.FlatLink(0, 1), 0)
	cut(t, rf, sim.FlatLink(5, 2), 0)
	addBulkPairs(cl, 200_000)
	if !cl.RunUntilDone(2000 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows survived link failures", done, total)
	}
	if rf.LinkUp(0, 1) || rf.LinkUp(5, 2) {
		t.Fatal("failed links still reported up")
	}
}

// A failed rotor switch takes one uplink per ToR out of rotation; every
// pair it served reroutes via VLB and traffic still completes.
func TestRotorNetSwitchFailureAndRecovery(t *testing.T) {
	cl, rf := rotorTestbed(t, opera.KindRotorNet)
	cut(t, rf, sim.SwitchTarget(3), 100*eventsim.Microsecond)
	heal(t, rf, sim.SwitchTarget(3), 5*eventsim.Millisecond)
	addBulkPairs(cl, 200_000)
	if !cl.RunUntilDone(2000 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows survived the switch outage", done, total)
	}
}

// A dead ToR strands traffic toward its rack — DirectReachable goes false
// for every pair involving it, so RotorLB holds the bytes rather than
// relaying into the dark — and recovery drains the backlog.
func TestRotorNetToRFailureStrandsUntilRecovery(t *testing.T) {
	cl, rf := rotorTestbed(t, opera.KindRotorNet)
	rn := cl.Network().(*sim.RotorNetSim)
	cut(t, rf, sim.ToRTarget(3), 50*eventsim.Microsecond)
	heal(t, rf, sim.ToRTarget(3), 20*eventsim.Millisecond)

	// One bulk flow into the doomed rack, one between healthy racks.
	cl.AddBulkFlow(workload.FlowSpec{Src: 0, Dst: 6, Bytes: 200_000, Arrival: eventsim.Millisecond})
	cl.AddBulkFlow(workload.FlowSpec{Src: 2, Dst: 10, Bytes: 200_000, Arrival: eventsim.Millisecond})

	cl.Run(10 * eventsim.Millisecond)
	if rn.DirectReachable(0, 3) {
		t.Fatal("rack 3 should be unreachable while its ToR is down")
	}
	healthy := cl.Metrics().Flows()[1]
	if !healthy.Done {
		t.Fatal("flow between healthy racks should finish during the outage")
	}
	if !cl.RunUntilDone(2000 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows completed after ToR recovery", done, total)
	}
	if !rn.DirectReachable(0, 3) {
		t.Fatal("rack 3 should be reachable again after recovery")
	}
}

// The injector's StrandedBytes counter surfaces the known RotorLB model
// gap: VLB bytes stored at a relay are never re-offloaded to a third
// rack, so when the destination becomes unreachable they sit at the
// relay until recovery. The counter reads zero on a healthy fabric,
// positive during the outage, and zero again once the backlog drains.
func TestRotorNetStrandedBytesFaultCounter(t *testing.T) {
	cl, rf := rotorTestbed(t, opera.KindRotorNet)
	sb := cl.Faults()
	mustOK(t, rf.Inject(sim.ToRTarget(3), sim.DownFault(), 2*eventsim.Millisecond))
	mustOK(t, rf.Recover(sim.ToRTarget(3), 30*eventsim.Millisecond))
	cl.AddBulkFlow(workload.FlowSpec{Src: 0, Dst: 6, Bytes: 5_000_000})

	cl.Run(eventsim.Millisecond) // ToR still up: everything is reachable
	if got := sb.StrandedBytes(); got != 0 {
		t.Fatalf("healthy fabric reports %d stranded bytes", got)
	}
	cl.Run(3 * eventsim.Millisecond) // outage: relay bytes toward rack 3 are stuck
	if sb.StrandedBytes() == 0 {
		t.Fatal("relay bytes toward the dead rack should read as stranded")
	}
	if !cl.RunUntilDone(2000 * eventsim.Millisecond) {
		t.Fatal("flow should complete after ToR recovery")
	}
	if got := sb.StrandedBytes(); got != 0 {
		t.Fatalf("drained fabric reports %d stranded bytes", got)
	}
}

// The hybrid variant's packet fabric is a separate network: low-latency
// traffic into a rack keeps flowing while the rack's rotor circuits are
// dark.
func TestRotorNetHybridPacketPathSurvivesRotorFaults(t *testing.T) {
	cl, rf := rotorTestbed(t, opera.KindRotorNetHybrid)
	for sw := 0; sw < cl.Network().(*sim.RotorNetSim).Topology().Uplinks(); sw++ {
		cut(t, rf, sim.FlatLink(3, sw), 0)
	}
	cl.AddFlow(workload.FlowSpec{Src: 0, Dst: 6, Bytes: 50_000, Arrival: 10 * eventsim.Microsecond})
	if !cl.RunUntilDone(500 * eventsim.Millisecond) {
		t.Fatal("low-latency flow should ride the hybrid packet fabric past rotor faults")
	}
}

// Packets already queued on a dead circuit are NACKed (bulk) or counted
// lost rather than delivered into the dark.
func TestRotorNetDeadCircuitTakesNACKPath(t *testing.T) {
	cl, rf := rotorTestbed(t, opera.KindRotorNet)
	// Fail everything mid-slot (slots are 100 µs), mid-flight: sessions
	// already pumping into the now-dead circuits have their packets NACKed
	// at the ToR. Recover shortly after so the run completes.
	rn := cl.Network().(*sim.RotorNetSim)
	for sw := 0; sw < rn.Topology().Uplinks(); sw++ {
		cut(t, rf, sim.FlatLink(0, sw), 1050*eventsim.Microsecond)
		heal(t, rf, sim.FlatLink(0, sw), 10*eventsim.Millisecond)
	}
	cl.AddBulkFlow(workload.FlowSpec{Src: 0, Dst: 9, Bytes: 2_000_000})
	if !cl.RunUntilDone(2000 * eventsim.Millisecond) {
		t.Fatal("flow should complete after link recovery")
	}
	if cl.BulkNACKCount() == 0 {
		t.Fatal("expected NACKs from the mid-flight outage")
	}
}
