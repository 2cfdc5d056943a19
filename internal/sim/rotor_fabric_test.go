package sim

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/topology"
)

// TestUplinkResolveMatchesSchedule walks rotor uplinks' resolve across two
// cycles at every slice boundary ± 1 ns and mid-slice, forwards and then
// backwards, against the schedule asked afresh each time: the far end kept
// per slice must be the one a per-packet lookup finds, on a staggered and
// on a unison schedule.
func TestUplinkResolveMatchesSchedule(t *testing.T) {
	opera, err := topology.NewOpera(topology.Config{NumRacks: 16, HostsPerRack: 4, NumSwitches: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rotor, err := topology.NewRotorNet(topology.Config{NumRacks: 16, HostsPerRack: 4, NumSwitches: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*rotorFabric{
		"opera":    &NewOperaNet(eventsim.New(), DefaultConfig(), opera, 1).rotorFabric,
		"rotornet": &NewRotorNetSim(eventsim.New(), DefaultConfig(), rotor, false, 1).rotorFabric,
	} {
		d := f.sched.SliceDuration()
		var times []eventsim.Time
		for s := 0; s <= 2*f.sched.SlicesPerCycle(); s++ {
			b := eventsim.Time(s) * d
			times = append(times, b-1, b, b+1, b+d/2)
		}
		times = times[1:] // no time before the epoch
		for i := len(times) - 1; i >= 0; i-- {
			times = append(times, times[i])
		}
		for _, rack := range []int{0, 7, 15} {
			for sw := 0; sw < f.sched.Uplinks(); sw++ {
				pt := f.tors[rack].up[sw]
				for _, at := range times {
					sc, _, _ := f.sched.SliceAt(at)
					var want Node
					if peer := f.sched.SwitchMatching(sw, sc).Peer(rack); peer != rack {
						want = f.tors[peer]
					}
					if got := pt.resolve(at); got != want {
						t.Fatalf("%s rack %d sw %d at %v (slice %d): far end %v, schedule says %v", name, rack, sw, at, sc, got, want)
					}
				}
			}
		}
	}
}

// TestUplinkResolveSeesFaultsMidSlice pins what is not kept per slice: a
// cable cut inside a slice darkens the circuit for the next packet, and
// the lost photons are counted per packet.
func TestUplinkResolveSeesFaultsMidSlice(t *testing.T) {
	topo, err := topology.NewOpera(topology.Config{NumRacks: 16, HostsPerRack: 4, NumSwitches: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventsim.New()
	f := &NewOperaNet(eng, DefaultConfig(), topo, 1).rotorFabric
	const rack = 3
	sw := 0
	for f.sched.SwitchMatching(sw, 0).Peer(rack) == rack {
		sw++ // a self-loop is dark anyway
	}
	pt := f.tors[rack].up[sw]
	d := f.sched.SliceDuration()
	if pt.resolve(d/4) == nil {
		t.Fatal("healthy circuit resolves to no peer")
	}
	if err := f.faults.Inject(FlatLink(rack, sw), DownFault(), d/2); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(d / 2)
	for i := uint64(1); i <= 2; i++ {
		if got := pt.resolve(d/2 + eventsim.Time(i)); got != nil {
			t.Fatalf("cut cable still resolves to %v in the slice it was cut in", got)
		}
		if f.faults.Lost != i {
			t.Fatalf("Lost = %d after %d transmissions into the cut cable", f.faults.Lost, i)
		}
	}
}

// TestDirectReachableMatchesSlotScan checks the one DirectReachable — the
// pair's switch, then whether that circuit is up — against asking every
// slot of the cycle for an installed circuit between the racks, the scan
// RotorNet ran on its own schedule type. It covers both RotorNet variants
// (the hybrid's three switches pad 16 racks), fault-free and with a cut
// cable, a dead ToR and a dead rotor switch.
func TestDirectReachableMatchesSlotScan(t *testing.T) {
	scan := func(f *rotorFabric, a, b int) bool {
		for slot := 0; slot < f.sched.SlicesPerCycle(); slot++ {
			if sw := f.sched.DirectSwitchInstalled(slot, a, b); sw >= 0 && f.circuitUp(a, b, sw) {
				return true
			}
		}
		return false
	}
	for _, kind := range []string{"rotornet", "rotornet-hybrid"} {
		for _, tc := range []struct {
			name   string
			faults []Target
		}{
			{"fault-free", nil},
			{"cut cable", []Target{FlatLink(3, 1)}},
			{"dead ToR", []Target{ToRTarget(5)}},
			{"dead rotor switch", []Target{{Kind: TargetSwitch, ID: 2}}},
		} {
			net, err := Build(kind, BuildParams{Engine: eventsim.New(), Sim: DefaultConfig(),
				Racks: 16, HostsPerRack: 4, Uplinks: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			f := &net.(*RotorNetSim).rotorFabric
			for _, target := range tc.faults {
				if err := f.faults.Inject(target, DownFault(), 1); err != nil {
					t.Fatal(err)
				}
			}
			f.eng.RunUntil(1)
			severed := 0
			for a := 0; a < f.racks; a++ {
				for b := 0; b < f.racks; b++ {
					got := f.DirectReachable(a, b)
					if want := scan(f, a, b); got != want {
						t.Fatalf("%s, %s: DirectReachable(%d, %d) = %v, slot scan says %v", kind, tc.name, a, b, got, want)
					}
					if a != b && !got {
						severed++
					}
				}
			}
			if (severed > 0) != (tc.faults != nil) {
				t.Fatalf("%s, %s: %d pairs severed", kind, tc.name, severed)
			}
		}
	}
}
