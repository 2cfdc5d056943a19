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
	rotor := topology.MustNewRotorNet(topology.RotorConfig{NumRacks: 16, HostsPerRack: 4, Uplinks: 4, Seed: 1})
	for name, f := range map[string]*rotorFabric{
		"opera":    &NewOperaNet(eventsim.New(), DefaultConfig(), opera, 1).rotorFabric,
		"rotornet": &NewRotorNetSim(eventsim.New(), DefaultConfig(), rotor, 1).rotorFabric,
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
