package sim_test

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
)

func rotorSim(t *testing.T, hybrid bool) *sim.RotorNetSim {
	t.Helper()
	kind := "rotornet"
	if hybrid {
		kind = "rotornet-hybrid"
	}
	n, err := sim.Build(kind, sim.BuildParams{Engine: eventsim.New(), Sim: sim.DefaultConfig(),
		Racks: 16, HostsPerRack: 4, Uplinks: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n.(*sim.RotorNetSim)
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
			if !sim.PortEnabled(tor.Uplink(sw)) {
				t.Fatalf("rack %d uplink %d disabled mid-slot", r, sw)
			}
		}
	}
	// During the unison blackout (final r of the slot): all disabled.
	eng.RunUntil(topo.SliceDuration() - topo.ReconfDelay()/2)
	for r := 0; r < 16; r++ {
		tor := torOf(n, r)
		for sw := 0; sw < 4; sw++ {
			if sim.PortEnabled(tor.Uplink(sw)) {
				t.Fatalf("rack %d uplink %d enabled during blackout", r, sw)
			}
		}
	}
	// Next slot: re-enabled.
	eng.RunUntil(topo.SliceDuration() + topo.SliceDuration()/4)
	for sw := 0; sw < 4; sw++ {
		if !sim.PortEnabled(torOf(n, 0).Uplink(sw)) {
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
	if n.Topology().Uplinks() != 3 || !n.PacketCapable() {
		t.Fatalf("hybrid on 4 uplinks: %d rotor switches, packet fabric %v; want 3 and one",
			n.Topology().Uplinks(), n.PacketCapable())
	}
	if n := rotorSim(t, false); n.Topology().Uplinks() != 4 || n.PacketCapable() {
		t.Fatalf("rotornet on 4 uplinks: %d rotor switches, packet fabric %v; want 4 and none",
			n.Topology().Uplinks(), n.PacketCapable())
	}
}

// The hybrid variant needs an uplink for its packet fabric and one for a
// rotor switch.
func TestRotorNetBuildErrors(t *testing.T) {
	for _, tc := range []struct {
		kind    string
		uplinks int
		want    string
	}{
		{"rotornet", 0, "topology: Uplinks must be >= 1, got 0"},
		{"rotornet-hybrid", 0, "topology: Uplinks must be >= 1, got 0"},
		{"rotornet-hybrid", 1, "topology: hybrid RotorNet needs >= 2 uplinks"},
	} {
		_, err := sim.Build(tc.kind, sim.BuildParams{Engine: eventsim.New(), Sim: sim.DefaultConfig(),
			Racks: 8, HostsPerRack: 1, Uplinks: tc.uplinks, Seed: 1})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s on %d uplinks: error %v, want %q", tc.kind, tc.uplinks, err, tc.want)
		}
	}
	if _, err := sim.Build("rotornet-hybrid", sim.BuildParams{Engine: eventsim.New(), Sim: sim.DefaultConfig(),
		Racks: 8, HostsPerRack: 1, Uplinks: 2, Seed: 1}); err != nil {
		t.Fatalf("hybrid on 2 uplinks: %v", err)
	}
}

// torOf exposes the package-internal ToR accessor via the exported uplink
// API on RotorToR.
func torOf(n *sim.RotorNetSim, rack int) *sim.RotorToR { return n.ToR(rack) }
