package sim_test

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"

	opera "github.com/opera-net/opera"
)

// expanderTestbed builds an expander cluster via the public API so NDP is
// attached, and exposes its failure state.
func expanderTestbed(t *testing.T) (*opera.Cluster, *sim.Faults) {
	t.Helper()
	cl := newCluster(t, opera.KindExpander,
		opera.WithRacks(16), opera.WithHostsPerRack(4), opera.WithUplinks(5), opera.WithSeed(1))
	return cl, cl.Faults()
}

func TestExpanderFaultInjectorExposed(t *testing.T) {
	cl, _ := expanderTestbed(t)
	if cl.Faults() == nil {
		t.Fatal("expander cluster should expose a fault injector")
	}
}

// Flows keep completing after link failures: routing reconverges around
// the dead cables and NDP retransmits whatever was queued on them.
func TestExpanderFlowsSurviveLinkFailure(t *testing.T) {
	cl, ef := expanderTestbed(t)
	cut(t, ef, sim.FlatLink(0, 1), 1*eventsim.Millisecond)
	cut(t, ef, sim.FlatLink(7, 3), 1*eventsim.Millisecond)
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
	if ef.LinkUp(0, 1) || ef.LinkUp(7, 3) {
		t.Fatal("failed links still reported up")
	}
}

// A failed link recovers: traffic crossing it completes both during the
// outage (around it) and after recovery (over it again).
func TestExpanderLinkRecovery(t *testing.T) {
	cl, ef := expanderTestbed(t)
	cut(t, ef, sim.FlatLink(2, 0), 500*eventsim.Microsecond)
	heal(t, ef, sim.FlatLink(2, 0), 5*eventsim.Millisecond)
	n := cl.NumHosts()
	for i := 0; i < n; i += 2 {
		cl.AddFlow(workload.FlowSpec{
			Src: i, Dst: (i + 9) % n, Bytes: 20_000,
			Arrival: eventsim.Time(i) * 100 * eventsim.Microsecond,
		})
	}
	if !cl.RunUntilDone(500 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows completed across fail+recover", done, total)
	}
	if !ef.LinkUp(2, 0) {
		t.Fatal("recovered link still reported down")
	}
}

// A dead ToR takes its hosts off the fabric; the rest of the cluster
// keeps working, and recovery brings the rack back.
func TestExpanderToRFailureIsolatesRack(t *testing.T) {
	cl, ef := expanderTestbed(t)
	cut(t, ef, sim.ToRTarget(3), 1*eventsim.Millisecond)
	n := cl.NumHosts()
	d := cl.HostsPerRack()
	for i := 0; i < n; i++ {
		src, dst := i, (i+2*d)%n
		if src/d == 3 || dst/d == 3 {
			continue // skip the doomed rack
		}
		cl.AddFlow(workload.FlowSpec{
			Src: src, Dst: dst, Bytes: 20_000,
			Arrival: eventsim.Time(i) * 100 * eventsim.Microsecond,
		})
	}
	if !cl.RunUntilDone(500 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows completed around the dead ToR", done, total)
	}
}

// Determinism: the same failure schedule over the same workload yields
// identical outcomes run-to-run (the injector draws no hidden state).
func TestExpanderFaultDeterminism(t *testing.T) {
	run := func() (int, uint64) {
		cl, ef := expanderTestbed(t)
		cut(t, ef, sim.FlatLink(1, 2), 700*eventsim.Microsecond)
		cl.AddSource(workload.FromSpecs(workload.Shuffle(12, 25_000, eventsim.Millisecond, 1)))
		cl.RunUntilDone(500 * eventsim.Millisecond)
		done, _ := cl.Metrics().DoneCount()
		return done, cl.Engine().Steps()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("fault runs diverge: (%d,%d) vs (%d,%d)", d1, s1, d2, s2)
	}
}
