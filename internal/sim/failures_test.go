package sim_test

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"

	opera "github.com/opera-net/opera"
)

// failureTestbed builds an Opera cluster via the public API so transports
// are attached, and exposes the failure state.
func failureTestbed(t *testing.T) (*opera.Cluster, *sim.Faults) {
	t.Helper()
	cl := newCluster(t, opera.KindOpera,
		opera.WithRacks(16), opera.WithHostsPerRack(4), opera.WithUplinks(4), opera.WithSeed(1))
	return cl, cl.OperaNet().Faults()
}

// cut and heal schedule a clean down fault and its recovery, failing the
// test on a rejected target.
func cut(t *testing.T, fs *sim.Faults, target sim.Target, at eventsim.Time) {
	t.Helper()
	mustOK(t, fs.Inject(target, sim.DownFault(), at))
}

func heal(t *testing.T, fs *sim.Faults, target sim.Target, at eventsim.Time) {
	t.Helper()
	mustOK(t, fs.Recover(target, at))
}

func TestHelloEpidemicConvergesWithinTwoCycles(t *testing.T) {
	cl, fs := failureTestbed(t)
	// Fail one link early on.
	cut(t, fs, sim.FlatLink(3, 2), 500*eventsim.Microsecond)
	// Cycle time: 16 slices × 100 µs = 1.6 ms. §3.6.2: any connected ToR
	// learns within at most two cycles.
	cl.Run(500*eventsim.Microsecond + 2*1600*eventsim.Microsecond)
	informed, survivors := cl.OperaNet().InformedCount()
	if informed != survivors {
		t.Fatalf("only %d/%d ToRs informed after two cycles", informed, survivors)
	}
}

func TestFlowsSurviveLinkFailure(t *testing.T) {
	cl, fs := failureTestbed(t)
	cut(t, fs, sim.FlatLink(0, 1), 1*eventsim.Millisecond)
	cut(t, fs, sim.FlatLink(7, 3), 1*eventsim.Millisecond)
	n := cl.NumHosts()
	for i := 0; i < n; i++ {
		cl.AddFlow(workload.FlowSpec{
			Src: i, Dst: (i + 19) % n, Bytes: 30_000,
			Arrival: eventsim.Time(i) * 50 * eventsim.Microsecond,
		})
	}
	if !cl.RunUntilDone(500 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows survived link failures", done, total)
	}
}

func TestFlowsSurviveSwitchFailure(t *testing.T) {
	cl, fs := failureTestbed(t)
	cut(t, fs, sim.Target{Kind: sim.TargetSwitch, ID: 2}, 2*eventsim.Millisecond)
	n := cl.NumHosts()
	for i := 0; i < n; i += 2 {
		cl.AddFlow(workload.FlowSpec{Src: i, Dst: (i + 9) % n, Bytes: 15_000})
	}
	if !cl.RunUntilDone(500 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows survived switch failure", done, total)
	}
	// With u=4 switches and one failed, slices where a second switch
	// transitions leave only 2 active matchings: possibly disconnected
	// moments, but NDP + rerouting must still deliver.
}

func TestBulkSurvivesLinkFailure(t *testing.T) {
	cl, fs := failureTestbed(t)
	cut(t, fs, sim.FlatLink(0, 0), 500*eventsim.Microsecond)
	cut(t, fs, sim.FlatLink(0, 1), 500*eventsim.Microsecond)
	f := cl.AddFlow(workload.FlowSpec{Src: 0, Dst: 60, Bytes: 1 << 20, Bulk: true})
	if !cl.RunUntilDone(3000 * eventsim.Millisecond) {
		t.Fatalf("bulk flow incomplete after failures: %d/%d (NACKs %d)",
			f.BytesRcvd, f.Size, cl.BulkNACKCount())
	}
}

func TestLostToDeadLinksCounted(t *testing.T) {
	cl, fs := failureTestbed(t)
	// Continuous traffic while a link dies: some packets in flight or
	// routed by uninformed ToRs are lost and counted.
	n := cl.NumHosts()
	for i := 0; i < n; i++ {
		cl.AddFlow(workload.FlowSpec{Src: i, Dst: (i + 31) % n, Bytes: 100_000})
	}
	cut(t, fs, sim.FlatLink(5, 2), 300*eventsim.Microsecond)
	cut(t, fs, sim.FlatLink(9, 0), 400*eventsim.Microsecond)
	cl.RunUntilDone(1000 * eventsim.Millisecond)
	// The counter is advisory; it must not panic and is usually nonzero
	// under load. Completion is the hard requirement.
	done, total := cl.Metrics().DoneCount()
	if done != total {
		t.Fatalf("%d/%d flows done", done, total)
	}
	t.Logf("packets lost to dead links: %d", fs.Lost)
}

func TestRecoveryRestoresLinks(t *testing.T) {
	cl, fs := failureTestbed(t)
	cut(t, fs, sim.FlatLink(3, 2), 500*eventsim.Microsecond)
	cut(t, fs, sim.Target{Kind: sim.TargetSwitch, ID: 1}, 500*eventsim.Microsecond)
	cut(t, fs, sim.ToRTarget(7), 500*eventsim.Microsecond)
	heal(t, fs, sim.FlatLink(3, 2), 2*eventsim.Millisecond)
	heal(t, fs, sim.Target{Kind: sim.TargetSwitch, ID: 1}, 2*eventsim.Millisecond)
	heal(t, fs, sim.ToRTarget(7), 2*eventsim.Millisecond)
	cl.Run(1 * eventsim.Millisecond)
	if fs.LinkUp(3, 2) || fs.LinkUp(0, 1) || fs.LinkUp(7, 0) {
		t.Fatal("failures not in effect at 1ms")
	}
	// Two cycles after recovery every ToR has relearned the full topology.
	cl.Run(2*eventsim.Millisecond + 2*1600*eventsim.Microsecond)
	if !fs.LinkUp(3, 2) || !fs.LinkUp(0, 1) || !fs.LinkUp(7, 0) {
		t.Fatal("recovery did not restore links")
	}
	informed, survivors := cl.OperaNet().InformedCount()
	if survivors != 16 || informed != survivors {
		t.Fatalf("informed=%d survivors=%d after recovery epidemic", informed, survivors)
	}
}

func TestFlowsCompleteAcrossFailAndRecover(t *testing.T) {
	cl, fs := failureTestbed(t)
	cut(t, fs, sim.Target{Kind: sim.TargetSwitch, ID: 2}, 1*eventsim.Millisecond)
	heal(t, fs, sim.Target{Kind: sim.TargetSwitch, ID: 2}, 4*eventsim.Millisecond)
	n := cl.NumHosts()
	for i := 0; i < n; i++ {
		cl.AddFlow(workload.FlowSpec{
			Src: i, Dst: (i + 13) % n, Bytes: 40_000,
			Arrival: eventsim.Time(i) * 100 * eventsim.Microsecond,
		})
	}
	if !cl.RunUntilDone(500 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows completed across fail+recover", done, total)
	}
}

func TestLinkUpAccessors(t *testing.T) {
	cl, fs := failureTestbed(t)
	if !fs.LinkUp(0, 0) {
		t.Fatal("fresh network should have all links up")
	}
	informed, survivors := cl.OperaNet().InformedCount()
	if informed != 0 || survivors != 16 {
		t.Fatalf("initial informed=%d survivors=%d", informed, survivors)
	}
}
