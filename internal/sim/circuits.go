package sim

import (
	"github.com/opera-net/opera/internal/eventsim"
)

// Circuit describes one usable direct rack-to-rack circuit during a slice,
// with its admission window as offsets from the slice boundary.
type Circuit struct {
	Switch      int
	Peer        int
	WindowStart eventsim.Time
	WindowEnd   eventsim.Time
}

// CircuitNetwork is a Network with slice-driven circuits (Opera, RotorNet);
// the RotorLB bulk transport drives itself off this interface.
type CircuitNetwork interface {
	Network
	// OnSlice registers a slice-boundary callback.
	OnSlice(fn func(absSlice int64))
	// SliceDuration returns the slice/slot length.
	SliceDuration() eventsim.Time
	// PairWindowsPerCycle returns how many slices per cycle a given rack
	// pair is directly connected (Opera: the schedule's GroupSize; RotorNet:
	// one slot). It sizes RotorLB's skew threshold: a queue exceeding one
	// cycle's direct drainage is a candidate for two-hop offloading.
	PairWindowsPerCycle() int
	// DirectReachable reports whether rack will (ever) get a working
	// direct circuit to dst — false when failures have severed the pair's
	// matching. RotorLB uses it to fully offload stranded queues via VLB
	// and to decline relaying toward unreachable destinations.
	DirectReachable(rack, dst int) bool
	// ActiveCircuits appends the circuits rack may use during absSlice to
	// buf and returns the extended slice; RotorLB calls it for every rack
	// at every slice boundary and passes the same buffer each time.
	ActiveCircuits(absSlice int64, rack int, buf []Circuit) []Circuit
}
