package topology

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/eventsim"
)

// RotorNet models the paper's RotorNet [34] baseline: the same rotor
// circuit switches as Opera, but reconfigured *in unison* — every switch
// swaps matchings at every slot boundary. This yields a much shorter cycle
// (all rack pairs connect once per N/c slots instead of Opera's
// GroupSize·N/c slices) at the cost of periodic global disruption: during
// reconfiguration no circuits exist at all, so RotorNet cannot carry
// low-latency traffic in-fabric and, in its hybrid form, dedicates one ToR
// uplink to a separate packet-switched network (+33% cost, §5.1).
type RotorNet struct {
	cfg       RotorConfig
	switches  int        // rotor switches (u for non-hybrid, u-1 for hybrid)
	matchings []Matching // per switch: slots each, concatenated
	slots     int        // slots per cycle
}

// RotorConfig parameterizes NewRotorNet.
type RotorConfig struct {
	NumRacks     int
	HostsPerRack int
	// Uplinks is the total ToR uplink count u (= k/2). Non-hybrid RotorNet
	// attaches all u to rotor switches; hybrid attaches u-1 and reserves
	// one for the packet-switched network.
	Uplinks   int
	Hybrid    bool
	GuardBand eventsim.Time
	Seed      int64
}

// NewRotorNet builds a RotorNet schedule: a complete-graph factorization
// distributed round-robin over the rotor switches so that a full cycle
// connects every rack pair at least once. When N is not divisible by the
// switch count, switches with fewer matchings pad their schedule by
// repeating their first matching (a slight duty-cycle inefficiency of the
// hybrid variant, which loses one uplink to the packet network).
func NewRotorNet(cfg RotorConfig) (*RotorNet, error) {
	if cfg.NumRacks <= 0 || cfg.NumRacks%2 != 0 {
		return nil, fmt.Errorf("topology: NumRacks must be positive even, got %d", cfg.NumRacks)
	}
	if cfg.Uplinks < 1 {
		return nil, fmt.Errorf("topology: Uplinks must be >= 1, got %d", cfg.Uplinks)
	}
	if cfg.HostsPerRack <= 0 {
		return nil, fmt.Errorf("topology: HostsPerRack must be positive, got %d", cfg.HostsPerRack)
	}
	numSwitches := cfg.Uplinks
	if cfg.Hybrid {
		numSwitches--
		if numSwitches < 1 {
			return nil, fmt.Errorf("topology: hybrid RotorNet needs >= 2 uplinks")
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	fact := FactorizeComplete(cfg.NumRacks, rng)
	slots := (cfg.NumRacks + numSwitches - 1) / numSwitches
	r := &RotorNet{cfg: cfg, switches: numSwitches, slots: slots}
	r.matchings = make([]Matching, numSwitches*slots)
	for sw := 0; sw < numSwitches; sw++ {
		for slot := 0; slot < slots; slot++ {
			idx := slot*numSwitches + sw // round-robin distribution
			if idx < len(fact) {
				r.matchings[sw*slots+slot] = fact[idx]
			} else {
				r.matchings[sw*slots+slot] = fact[sw] // pad
			}
		}
	}
	return r, nil
}

// MustNewRotorNet is NewRotorNet but panics on error.
func MustNewRotorNet(cfg RotorConfig) *RotorNet {
	r, err := NewRotorNet(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// NumRacks returns N.
func (r *RotorNet) NumRacks() int { return r.cfg.NumRacks }

// HostsPerRack returns d.
func (r *RotorNet) HostsPerRack() int { return r.cfg.HostsPerRack }

// NumHosts returns the total host count.
func (r *RotorNet) NumHosts() int { return r.cfg.NumRacks * r.cfg.HostsPerRack }

// Uplinks returns the rotor switch count: every ToR uplink, bar the one the
// hybrid variant gives to the packet network.
func (r *RotorNet) Uplinks() int { return r.switches }

// Hybrid reports whether one ToR uplink is diverted to a packet network.
func (r *RotorNet) Hybrid() bool { return r.cfg.Hybrid }

// SlicesPerCycle returns the number of slots after which the schedule
// repeats (every rack pair has been directly connected at least once):
// ⌈N / switches⌉.
func (r *RotorNet) SlicesPerCycle() int { return r.slots }

// SliceDuration returns the time a set of matchings is held (RotorNet
// calls it a slot), dark for ReconfDelay at its end.
func (r *RotorNet) SliceDuration() eventsim.Time { return sliceDuration }

// ReconfDelay returns r.
func (r *RotorNet) ReconfDelay() eventsim.Time { return DefaultReconfDelay }

// PairWindowsPerCycle returns 1: a pair's matching is held for one slot.
func (r *RotorNet) PairWindowsPerCycle() int { return 1 }

// CycleTime returns SlicesPerCycle × SliceDuration. For the paper's
// 108-rack non-hybrid network: 18 slots × 100 µs = 1.8 ms.
func (r *RotorNet) CycleTime() eventsim.Time {
	return eventsim.Time(r.slots) * sliceDuration
}

// SliceAt maps a time to (slot in cycle, absolute slot, offset).
func (r *RotorNet) SliceAt(t eventsim.Time) (sliceInCycle int, absSlice int64, offset eventsim.Time) {
	abs := int64(t / sliceDuration)
	return int(abs % int64(r.slots)), abs, t % sliceDuration
}

// IsTransitioning reports true: every switch reconfigures at the end of
// every slot.
func (r *RotorNet) IsTransitioning(sw, slot int) bool { return true }

// SwitchMatching returns the matching installed on switch sw during slot s.
func (r *RotorNet) SwitchMatching(sw, slot int) Matching {
	s := slot % r.slots
	if s < 0 {
		s += r.slots
	}
	return r.matchings[sw*r.slots+s]
}

// DirectSwitchInstalled returns the switch directly connecting racks a and
// b during slot s, or -1.
func (r *RotorNet) DirectSwitchInstalled(slot, a, b int) int {
	if a == b {
		return -1
	}
	for sw := 0; sw < r.switches; sw++ {
		if r.SwitchMatching(sw, slot).Peer(a) == b {
			return sw
		}
	}
	return -1
}

// BulkWindow returns the usable transmission window within a slot, the
// same for every switch and slot: all are dark for the final ReconfDelay
// (unison reconfiguration), plus guard bands at both ends.
func (r *RotorNet) BulkWindow(sw, slot int) (start, end eventsim.Time) {
	start = r.cfg.GuardBand
	end = sliceDuration - DefaultReconfDelay - r.cfg.GuardBand
	if end < start {
		end = start
	}
	return start, end
}

// DutyCycle returns the fraction of time circuits carry traffic.
func (r *RotorNet) DutyCycle() float64 {
	s, e := r.BulkWindow(0, 0)
	return float64(e-s) / float64(sliceDuration)
}
