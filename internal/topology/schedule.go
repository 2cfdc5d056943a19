package topology

import "github.com/opera-net/opera/internal/eventsim"

// Schedule is a rotor fabric's plan: which matching each rotor switch
// holds in each slice, and when each switch reconfigures. Opera and
// RotorNet are the same circuit switches on two Schedules (§3.1,
// Appendix B) — staggered by groups, or all in unison — and the packet
// simulator's circuit plane and the fluid model run on either through
// this interface; a further rotor variant is one more implementation.
type Schedule interface {
	NumRacks() int
	HostsPerRack() int
	NumHosts() int
	// Uplinks is the number of rotor switches, one uplink per ToR each.
	Uplinks() int
	SlicesPerCycle() int
	SliceDuration() eventsim.Time
	// ReconfDelay is how long a transitioning switch is dark at the end
	// of its slice.
	ReconfDelay() eventsim.Time
	// PairWindowsPerCycle is the number of slices per cycle a given rack
	// pair is directly connected.
	PairWindowsPerCycle() int
	SliceAt(t eventsim.Time) (sliceInCycle int, absSlice int64, offset eventsim.Time)
	// IsTransitioning reports whether sw reconfigures at the end of slice;
	// until then SwitchMatching is its old matching.
	IsTransitioning(sw, slice int) bool
	SwitchMatching(sw, slice int) Matching
	// DirectSwitchInstalled returns a switch whose installed matching
	// connects racks a and b during slice, or -1.
	DirectSwitchInstalled(slice, a, b int) int
	// BulkWindow is the interval of slice, as offsets from its start, in
	// which bulk may be admitted to sw's circuits: GuardBand late after a
	// reconfiguration, ReconfDelay + GuardBand early before one.
	BulkWindow(sw, slice int) (start, end eventsim.Time)
}

var (
	_ Schedule = (*Opera)(nil)
	_ Schedule = (*RotorNet)(nil)
)
