package sim_test

import (
	"reflect"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"

	opera "github.com/opera-net/opera"
)

// TestActiveFaultsLifecycle walks a fault through its whole life on an
// Opera fabric and checks the live view at each stage: empty before the
// injection fires, listed (sorted) while applied, gone after recovery.
func TestActiveFaultsLifecycle(t *testing.T) {
	cl := newCluster(t, opera.KindOpera, opera.WithRacks(8), opera.WithHostsPerRack(2))
	inj := cl.Faults()

	// Injected later, sorted earlier: the listing must be coordinate
	// order, not injection order.
	linkB := sim.LinkTarget(sim.FlatLink(5, 1))
	linkA := sim.LinkTarget(sim.FlatLink(2, 0))
	if err := inj.Inject(linkB, sim.LossyFault(0.25), 100*eventsim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := inj.Inject(linkA, sim.DownFault(), 200*eventsim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := inj.Recover(linkB, 500*eventsim.Microsecond); err != nil {
		t.Fatal(err)
	}

	if got := inj.ActiveFaults(); got != nil {
		t.Fatalf("before anything fires: %v, want nil", got)
	}

	cl.Run(300 * eventsim.Microsecond)
	want := []sim.ActiveFault{
		{Target: linkA, Fault: sim.DownFault()},
		{Target: linkB, Fault: sim.LossyFault(0.25)},
	}
	if got := inj.ActiveFaults(); !reflect.DeepEqual(got, want) {
		t.Fatalf("while applied:\n got %v\nwant %v", got, want)
	}

	cl.Run(600 * eventsim.Microsecond)
	want = want[:1] // linkB recovered
	if got := inj.ActiveFaults(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after recovery:\n got %v\nwant %v", got, want)
	}
}

// TestActiveFaultsLatestWins pins the per-target policy: a later fault on
// the same target replaces the earlier entry, and a flapping target stays
// listed through both phases of the cycle.
func TestActiveFaultsLatestWins(t *testing.T) {
	cl := newCluster(t, opera.KindOpera, opera.WithRacks(8), opera.WithHostsPerRack(2))
	inj := cl.Faults()

	link := sim.LinkTarget(sim.FlatLink(1, 1))
	flap := sim.FlappingFault(50*eventsim.Microsecond, 50*eventsim.Microsecond)
	if err := inj.Inject(link, flap, 100*eventsim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := inj.Inject(link, sim.DownFault(), eventsim.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Mid-cycle, in an "up" phase, the flap is still the active fault.
	cl.Run(175 * eventsim.Microsecond)
	if got := inj.ActiveFaults(); len(got) != 1 || got[0].Fault.Kind != sim.FaultFlapping {
		t.Fatalf("mid-flap: %v, want one flapping entry", got)
	}

	cl.Run(1100 * eventsim.Microsecond)
	if got := inj.ActiveFaults(); len(got) != 1 || got[0].Fault.Kind != sim.FaultDown {
		t.Fatalf("after hard cut: %v, want one down entry", got)
	}
}
