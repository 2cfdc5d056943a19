package topology

import (
	"slices"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
)

// The properties the shared rotor fabric stands on, checked through the
// Schedule interface against both implementations: staggered Opera with
// one stagger group and with two, and unison RotorNet with and without
// the padding a switch count that does not divide N brings.
func TestScheduleProperties(t *testing.T) {
	const g = eventsim.Microsecond
	for _, tc := range []struct {
		name  string
		sched Schedule
	}{
		{"opera-16x4", MustNewOpera(Config{NumRacks: 16, HostsPerRack: 4, NumSwitches: 4, GuardBand: g, Seed: 1})},
		{"opera-24x12-two-groups", MustNewOpera(Config{NumRacks: 24, HostsPerRack: 2, NumSwitches: 12, GuardBand: g, Seed: 1})},
		{"rotornet-16x4", MustNewRotorNet(RotorConfig{NumRacks: 16, HostsPerRack: 4, Uplinks: 4, GuardBand: g, Seed: 1})},
		{"rotornet-hybrid-16x4-padded", MustNewRotorNet(RotorConfig{NumRacks: 16, HostsPerRack: 4, Uplinks: 4, Hybrid: true, GuardBand: g, Seed: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sched
			n, u, perCycle := s.NumRacks(), s.Uplinks(), s.SlicesPerCycle()
			dur, r := s.SliceDuration(), s.ReconfDelay()
			if s.NumHosts() != n*s.HostsPerRack() {
				t.Fatalf("NumHosts = %d, want %d", s.NumHosts(), n*s.HostsPerRack())
			}

			// Every distinct pair is directly connected in at least
			// PairWindowsPerCycle slices of a cycle, and never to itself.
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					windows := 0
					for sl := 0; sl < perCycle; sl++ {
						if sw := s.DirectSwitchInstalled(sl, a, b); sw >= 0 {
							windows++
							if s.SwitchMatching(sw, sl).Peer(a) != b {
								t.Fatalf("slice %d: switch %d does not connect %d-%d", sl, sw, a, b)
							}
						}
					}
					if windows < s.PairWindowsPerCycle() {
						t.Fatalf("pair %d-%d connected in %d slices, want >= %d", a, b, windows, s.PairWindowsPerCycle())
					}
				}
				if s.DirectSwitchInstalled(0, a, a) != -1 {
					t.Fatalf("rack %d directly connected to itself", a)
				}
			}

			// A switch holds one matching between transitions; its bulk
			// window closes r+g early in the transitioning slice and opens
			// g late in the next, and is the whole slice otherwise.
			for sw := 0; sw < u; sw++ {
				for sl := 0; sl < perCycle; sl++ {
					start, end := s.BulkWindow(sw, sl)
					next, _ := s.BulkWindow(sw, sl+1)
					if s.IsTransitioning(sw, sl) {
						if end != dur-r-g || next != g {
							t.Fatalf("sw %d transitioning in %d: window ends %v, next starts %v; want %v, %v", sw, sl, end, next, dur-r-g, g)
						}
					} else {
						if end != dur || next != 0 {
							t.Fatalf("sw %d stable in %d: window ends %v, next starts %v; want %v, 0", sw, sl, end, next, dur)
						}
						if !slices.Equal(s.SwitchMatching(sw, sl), s.SwitchMatching(sw, sl+1)) {
							t.Fatalf("sw %d changed matching after slice %d without transitioning", sw, sl)
						}
					}
					if start > end {
						t.Fatalf("sw %d slice %d: window [%v, %v] inverted", sw, sl, start, end)
					}
				}
			}

			// SliceAt round-trips across more than one cycle.
			for abs := int64(0); abs < int64(2*perCycle+1); abs++ {
				for _, off := range []eventsim.Time{0, 7, dur - 1} {
					sc, gotAbs, gotOff := s.SliceAt(eventsim.Time(abs)*dur + off)
					if sc != int(abs%int64(perCycle)) || gotAbs != abs || gotOff != off {
						t.Fatalf("SliceAt(%d·dur+%v) = %d,%d,%v", abs, off, sc, gotAbs, gotOff)
					}
				}
			}

			// RotorNet is the schedule with every switch in its own group.
			if rn, ok := s.(*RotorNet); ok {
				if want := (n + u - 1) / u; perCycle != want {
					t.Fatalf("SlicesPerCycle = %d, want ⌈%d/%d⌉ = %d", perCycle, n, u, want)
				}
				if rn.PairWindowsPerCycle() != 1 {
					t.Fatalf("PairWindowsPerCycle = %d, want 1", rn.PairWindowsPerCycle())
				}
				for sw := 0; sw < u; sw++ {
					for sl := 0; sl < perCycle; sl++ {
						if !rn.IsTransitioning(sw, sl) {
							t.Fatalf("sw %d not transitioning in slot %d", sw, sl)
						}
					}
				}
			}
		})
	}

	// §5.1: 108 racks on 6 rotor switches cycle in 18 slots, 1.8 ms.
	paper := Schedule(MustNewRotorNet(RotorConfig{NumRacks: 108, HostsPerRack: 6, Uplinks: 6, Seed: 1}))
	if paper.SlicesPerCycle() != 18 || eventsim.Time(paper.SlicesPerCycle())*paper.SliceDuration() != 1800*eventsim.Microsecond {
		t.Fatalf("paper RotorNet: %d slots of %v, want 18 × 100µs", paper.SlicesPerCycle(), paper.SliceDuration())
	}
}
