package sim

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/routing"
	"github.com/opera-net/opera/internal/topology"
)

// recoveryTestbed is a started Opera fabric. With traffic, every rack's
// ToR forwards one low-latency packet to a rack half the fabric away at
// every slice boundary — so informed ToRs look their recovery tables up in
// every slice an epoch lives through.
func recoveryTestbed(t testing.TB, racks, uplinks int, traffic bool) (*eventsim.Engine, *OperaNet) {
	t.Helper()
	topo, err := topology.NewOpera(topology.Config{NumRacks: racks, HostsPerRack: uplinks, NumSwitches: uplinks, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventsim.New()
	n := NewOperaNet(eng, DefaultConfig(), topo, 1)
	if traffic {
		n.OnSlice(func(int64) {
			for r, tor := range n.tors {
				p := NewPacket()
				p.Kind, p.Class = KindData, ClassLowLatency
				p.Size = topology.DefaultHeaderBytes
				p.SrcRack, p.DstRack = int32(r), int32((r+racks/2)%racks)
				p.DstHost = p.DstRack * int32(uplinks)
				p.SliceTag = -1
				tor.Receive(p, nil)
			}
		})
	}
	n.Start()
	return eng, n
}

// survivingMaps is the recovery tables' specification, derived without
// them: every slice's port map minus the circuits either of whose cables
// the fault table has down.
func survivingMaps(n *OperaNet) []routing.PortMap {
	maps := routing.OperaPortMaps(n.sched)
	for _, pm := range maps {
		for rack, row := range pm {
			for sw, peer := range row {
				if peer >= 0 && !n.circuitUp(rack, int(peer), sw) {
					row[sw] = -1
				}
			}
		}
	}
	return maps
}

// TestRecoverySlicesBuiltOnDemand counts what a fault epoch pays for at
// paper scale: an epoch that lives k slices builds at most k+2 of the 108
// (the slice it starts in, the k boundaries it crosses, and one stale tag)
// — a count, not a timing.
func TestRecoverySlicesBuiltOnDemand(t *testing.T) {
	eng, n := recoveryTestbed(t, 108, 6, true)
	const k = 3
	d := n.SliceDuration()
	failAt := 2*d + d/2
	target := FlatLink(5, 1)
	if err := n.faults.Inject(target, DownFault(), failAt); err != nil {
		t.Fatal(err)
	}
	if err := n.faults.Recover(target, failAt+k*d); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(failAt - 1)
	if n.epidemic.recovery != nil {
		t.Fatal("recovery tables exist before any fault")
	}
	for epoch := 1; epoch <= 2; epoch++ {
		eng.RunUntil(failAt + eventsim.Time(epoch)*k*d - 1)
		if n.epidemic.epoch != epoch {
			t.Fatalf("epoch %d, want %d", n.epidemic.epoch, epoch)
		}
		if built := n.epidemic.recovery.Built(); built < k || built > k+2 {
			t.Fatalf("epoch %d lived %d slices and built %d of %d, want %d..%d",
				epoch, k, built, n.tables.Slices, k, k+2)
		}
	}
}

// TestRecoveryMatchesEagerBuild runs a fault schedule — links, a ToR and a
// switch going down and coming back — and after every event compares every
// slice of the lazily built recovery tables with Build of the surviving
// port maps.
func TestRecoveryMatchesEagerBuild(t *testing.T) {
	eng, n := recoveryTestbed(t, 16, 4, true)
	d := n.SliceDuration()
	events := []struct {
		target Target
		down   bool
	}{
		{FlatLink(3, 2), true},
		{FlatLink(9, 0), true},
		{ToRTarget(6), true},
		{FlatLink(3, 2), false},
		{Target{Kind: TargetSwitch, ID: 1}, true},
		{ToRTarget(6), false},
		{Target{Kind: TargetSwitch, ID: 1}, false},
		{FlatLink(9, 0), false},
	}
	for i, ev := range events {
		at := eventsim.Time(i+1) * (2*d + d/3)
		var err error
		if ev.down {
			err = n.faults.Inject(ev.target, DownFault(), at)
		} else {
			err = n.faults.Recover(ev.target, at)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, ev := range events {
		// Let the epoch live a slice and a half, so some of its slices are
		// built by forwarding and the rest by the comparison below.
		eng.RunUntil(eventsim.Time(i+1)*(2*d+d/3) + d + d/2)
		if n.epidemic.epoch != i+1 {
			t.Fatalf("after event %d: epoch %d", i, n.epidemic.epoch)
		}
		rec := n.epidemic.recovery
		want, err := routing.Build(survivingMaps(n))
		if err != nil {
			t.Fatal(err)
		}
		if built := rec.Built(); built == 0 || built == rec.Slices {
			t.Fatalf("after %v: forwarding built %d of %d slices, want some and not all", ev.target, built, rec.Slices)
		}
		for s := 0; s < want.Slices; s++ {
			for src := 0; src < want.N; src++ {
				for dst := 0; dst < want.N; dst++ {
					if g, w := rec.Mask(s, src, dst), want.Mask(s, src, dst); g != w {
						t.Fatalf("after %v (down=%v): slice %d mask %d→%d = %b, want %b", ev.target, ev.down, s, src, dst, g, w)
					}
				}
			}
		}
	}
}

// TestAllocsFaultEpoch gates the fault path's memory at paper scale: the
// first fault event allocates the recovery tables, and every later one
// reuses them, building the slices its epoch looks up in place. What is
// left per event is its target and detector lists. (No packets here: the
// detecting ToR's lookups are made by hand, so the count is the fault
// path's alone.)
func TestAllocsFaultEpoch(t *testing.T) {
	eng, n := recoveryTestbed(t, 108, 6, false)
	const rack = 5
	d := n.SliceDuration()
	if err := n.faults.Inject(FlatLink(rack, 1), Fault{Kind: FaultFlapping, Up: 2 * d, Down: d}, d/2); err != nil {
		t.Fatal(err)
	}
	now := d
	flapPeriod := func() { // a down and an up event, each epoch looked up once
		for i := 0; i < 3; i++ {
			now += d
			eng.RunUntil(now)
			sc, _, _ := n.sched.SliceAt(now)
			if n.epidemic.tablesFor(rack).PickUplink(sc, rack, 60, 0) < 0 {
				t.Fatalf("slice %d: rack %d cannot reach rack 60", sc, rack)
			}
		}
	}
	flapPeriod() // the first fault event allocates the tables
	rec, epoch := n.epidemic.recovery, n.epidemic.epoch
	if rec == nil || epoch < 2 {
		t.Fatalf("flap has not cycled: epoch %d", epoch)
	}
	const periods = 5
	avg := testing.AllocsPerRun(periods, flapPeriod)
	if got := n.epidemic.epoch - epoch; got < 2*periods {
		t.Fatalf("%d fault events in %d flap periods", got, periods)
	}
	if n.epidemic.recovery != rec {
		t.Fatal("a later fault event replaced the recovery tables")
	}
	if rec.Built() == 0 {
		t.Fatal("the last epoch built nothing")
	}
	if avg > 4 {
		t.Fatalf("a flap period (two fault events) allocates %.0f objects, want <= 4", avg)
	}
}
