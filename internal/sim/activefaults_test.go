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
	linkB := sim.FlatLink(5, 1)
	linkA := sim.FlatLink(2, 0)
	if err := inj.Inject(linkB, sim.Fault{Kind: sim.FaultLossy, Rate: 0.25}, 100*eventsim.Microsecond); err != nil {
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
		{Target: linkB, Fault: sim.Fault{Kind: sim.FaultLossy, Rate: 0.25}},
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

	link := sim.FlatLink(1, 1)
	flap := sim.Fault{Kind: sim.FaultFlapping, Up: 50 * eventsim.Microsecond, Down: 50 * eventsim.Microsecond}
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

// TestActiveFaultsCanonicalOrder pins the listing order the per-element
// state walks into — links, then ToRs, then switches; within a kind by
// (tier, ID, switch, port) — under canonical names, whatever the injection
// order or the name a fault was injected under. The strings are the
// /status faults.active rows, as rendered before the state was a map.
func TestActiveFaultsCanonicalOrder(t *testing.T) {
	us := eventsim.Microsecond
	for _, tc := range []struct {
		kind   opera.Kind
		inject []sim.ActiveFault // in injection order
		want   []string          // "target fault", in listing order
	}{
		// Reverse canonical order on the Clos; the tier-1 link is named
		// by its flat alias.
		{opera.KindFoldedClos, []sim.ActiveFault{
			{Target: sim.TierSwitchTarget(sim.ClosTierCore, 1)},
			{Target: sim.TierSwitchTarget(sim.ClosTierAgg, 1)},
			{Target: sim.ToRTarget(5)},
			{Target: sim.Target{Kind: sim.TargetLink, Tier: sim.ClosTierAgg, Port: 1}, Fault: sim.Fault{Kind: sim.FaultLossy, Rate: 0.3}},
			{Target: sim.FlatLink(0, 1), Fault: sim.Fault{Kind: sim.FaultDegraded, RateFraction: 0.5}},
		}, []string{
			"link(tier=1,sw=0,port=1) degraded(0.5)",
			"link(tier=2,sw=0,port=1) lossy(0.3)",
			"tor(5) down",
			"switch(tier=2,1) down",
			"switch(tier=3,1) down",
		}},
		// On the expander rack 5's uplink 3 is the alias of rack 3's
		// uplink 3, the cable's canonical name.
		{opera.KindExpander, []sim.ActiveFault{
			{Target: sim.ToRTarget(0)},
			{Target: sim.FlatLink(5, 3), Fault: sim.Fault{Kind: sim.FaultFlapping, Up: 50 * us, Down: 50 * us}},
		}, []string{
			"link(rack=3,up=3) flapping(up=50.000µs,down=50.000µs)",
			"tor(0) down",
		}},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			cl := newCluster(t, tc.kind)
			inj := cl.Faults()
			for i, a := range tc.inject {
				mustOK(t, inj.Inject(a.Target, a.Fault, eventsim.Time(i+1)*us))
			}
			cl.Run(10 * us)
			var got []string
			for _, a := range inj.ActiveFaults() {
				got = append(got, a.Target.String()+" "+a.Fault.String())
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("active faults:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
