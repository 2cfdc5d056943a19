package sim_test

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/topology"
)

func rotorSim(t *testing.T, hybrid bool) *sim.RotorNetSim {
	t.Helper()
	topo := topology.MustNewRotorNet(topology.RotorConfig{
		NumRacks: 16, HostsPerRack: 4, Uplinks: 4, Hybrid: hybrid, Seed: 1,
	})
	eng := eventsim.New()
	return sim.NewRotorNetSim(eng, sim.DefaultConfig(), topo, 1)
}

func TestRotorNetActiveCircuits(t *testing.T) {
	n := rotorSim(t, false)
	for slot := int64(0); slot < int64(n.Topology().SlicesPerCycle()); slot++ {
		for rack := 0; rack < 16; rack++ {
			cs := n.ActiveCircuits(slot, rack, nil)
			// Up to 4 circuits (self-loops excluded), all sharing the
			// unison window.
			if len(cs) > 4 {
				t.Fatalf("slot %d rack %d: %d circuits", slot, rack, len(cs))
			}
			for _, c := range cs {
				if c.Peer == rack {
					t.Fatal("self circuit listed")
				}
				ws, we := n.Topology().BulkWindow(0, 0)
				if c.WindowStart != ws || c.WindowEnd != we {
					t.Fatalf("window mismatch: [%v,%v] vs [%v,%v]", c.WindowStart, c.WindowEnd, ws, we)
				}
			}
		}
	}
}

func TestRotorNetDirectReachable(t *testing.T) {
	n := rotorSim(t, false)
	if n.DirectReachable(3, 3) {
		t.Fatal("self pair reachable")
	}
	if !n.DirectReachable(0, 5) {
		t.Fatal("pair should be reachable without failures")
	}
}

func TestRotorNetSlotClockUnison(t *testing.T) {
	n := rotorSim(t, false)
	n.Start()
	eng := n.Engine()
	topo := n.Topology()
	// Mid-slot: every rotor uplink of every ToR enabled.
	eng.RunUntil(topo.SliceDuration() / 2)
	for r := 0; r < 16; r++ {
		tor := torOf(n, r)
		for sw := 0; sw < 4; sw++ {
			if !tor.Uplink(sw).Enabled() {
				t.Fatalf("rack %d uplink %d disabled mid-slot", r, sw)
			}
		}
	}
	// During the unison blackout (final r of the slot): all disabled.
	eng.RunUntil(topo.SliceDuration() - topo.ReconfDelay()/2)
	for r := 0; r < 16; r++ {
		tor := torOf(n, r)
		for sw := 0; sw < 4; sw++ {
			if tor.Uplink(sw).Enabled() {
				t.Fatalf("rack %d uplink %d enabled during blackout", r, sw)
			}
		}
	}
	// Next slot: re-enabled.
	eng.RunUntil(topo.SliceDuration() + topo.SliceDuration()/4)
	for sw := 0; sw < 4; sw++ {
		if !torOf(n, 0).Uplink(sw).Enabled() {
			t.Fatalf("uplink %d not re-enabled after boundary", sw)
		}
	}
}

func TestRotorNetSliceListener(t *testing.T) {
	n := rotorSim(t, false)
	var slots []int64
	n.OnSlice(func(s int64) { slots = append(slots, s) })
	n.Start()
	n.Engine().RunUntil(5 * n.Topology().SliceDuration())
	if len(slots) < 5 {
		t.Fatalf("listener saw %d slots", len(slots))
	}
	for i, s := range slots {
		if s != int64(i) {
			t.Fatalf("slot sequence %v", slots)
		}
	}
	n.Stop()
}

func TestRotorNetHybridFabricPorts(t *testing.T) {
	n := rotorSim(t, true)
	if n.Topology().Uplinks() != 3 {
		t.Fatalf("hybrid should run 3 rotor switches, got %d", n.Topology().Uplinks())
	}
}

// torOf exposes the package-internal ToR accessor via the exported uplink
// API on RotorToR.
func torOf(n *sim.RotorNetSim, rack int) *sim.RotorToR { return n.ToR(rack) }
