package sim

import (
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/topology"
)

// Config carries the physical constants of a simulation. The zero value is
// not usable; call DefaultConfig and override fields as needed. Every
// link runs at topology.DefaultLinkRateGbps; unit tests vary the queue
// bounds.
type Config struct {
	// PropDelay is the one-way propagation delay per hop (500 ns ≈ 100 m).
	PropDelay eventsim.Time
	// MTU is the maximum (and default data) packet size in bytes.
	MTU int
	// DataQueueBytes bounds each port's low-latency data queue; arrivals
	// beyond it are trimmed to headers (§4.2.1: 12 KB ≈ 8 full packets).
	DataQueueBytes int
	// HeaderQueueBytes bounds each port's header/control queue (§4.2.1).
	HeaderQueueBytes int
	// BulkQueueBytes bounds each port's bulk staging queue; overflow drops
	// trigger RotorLB NACKs (§4.2.2).
	BulkQueueBytes int
}

// DefaultConfig returns the paper's physical constants. The bulk staging
// bound is sized to absorb one slice of full circuit convergence on a
// downlink (u−1 inbound circuits can momentarily target one host; the
// §4.2.2 NACK path handles anything beyond).
func DefaultConfig() Config {
	return Config{
		PropDelay:        topology.DefaultPropDelay,
		MTU:              topology.DefaultMTU,
		DataQueueBytes:   topology.DefaultDataQueueBytes,
		HeaderQueueBytes: topology.DefaultHeaderQueue,
		BulkQueueBytes:   1 << 20,
	}
}

// SerializationDelay returns the time to clock the given bytes onto a link.
// It is a method only because bench/ calls it as one; ROADMAP item 2d
// removes that, and the MTU and PropDelay fields bench/ reads.
func (c *Config) SerializationDelay(bytes int) eventsim.Time {
	ns := float64(bytes) * 8 / topology.DefaultLinkRateGbps // Gb/s ⇒ bits/ns
	return eventsim.Time(ns + 0.5)
}

// BytesIn returns how many bytes the link can carry in d.
func (c *Config) BytesIn(d eventsim.Time) int {
	if d <= 0 {
		return 0
	}
	return int(float64(d) * topology.DefaultLinkRateGbps / 8)
}
