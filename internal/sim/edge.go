package sim

import (
	"fmt"

	"github.com/opera-net/opera/internal/eventsim"
)

// edge is the host side every fabric shares: the engine and physical
// constants, the hosts with their NICs, the metrics collector and the
// fault table. Each fabric embeds one and adds its switches.
type edge struct {
	eng     *eventsim.Engine
	cfg     *Config
	kind    string // architecture name
	hosts   []*Host
	metrics *Metrics

	racks, hostsPerRack int

	// faults is the fabric's link-state table and injector; each fabric
	// builds it over its own coordinate map once its ports are wired.
	faults *Faults
}

func newEdge(eng *eventsim.Engine, cfg Config, kind string, racks, hostsPerRack int) edge {
	return edge{eng: eng, cfg: &cfg, kind: kind, metrics: NewMetrics(),
		racks: racks, hostsPerRack: hostsPerRack}
}

// wireHosts creates the hosts, rack-major, each with a NIC to its ToR.
func (e *edge) wireHosts(tor func(rack int) Node) {
	e.hosts = make([]*Host, e.racks*e.hostsPerRack)
	for h := range e.hosts {
		rack := h / e.hostsPerRack
		host := NewHost(e.eng, e.cfg, int32(h), int32(rack))
		host.SetNIC(NewPort(e.eng, e.cfg, fmt.Sprintf("host%d->tor%d", h, rack), tor(rack)))
		e.hosts[h] = host
	}
}

// downlinks builds a ToR's ports to its rack's hosts (wireHosts first).
func (e *edge) downlinks(rack int) []*Port {
	down := make([]*Port, e.hostsPerRack)
	for i := range down {
		host := e.hosts[rack*e.hostsPerRack+i]
		down[i] = NewPort(e.eng, e.cfg, fmt.Sprintf("tor%d->host%d", rack, host.ID), host)
	}
	return down
}

// deliverLocal hands a packet addressed to this rack to its host's
// downlink; a destination outside the rack's host range is released.
func deliverLocal(down []*Port, rack int32, p *Packet) {
	idx := int(p.DstHost) - int(rack)*len(down)
	if idx < 0 || idx >= len(down) {
		p.Release()
		return
	}
	down[idx].Enqueue(p)
}

// Kind returns the architecture's name.
func (e *edge) Kind() string { return e.kind }

// Faults returns the fabric's fault injector.
func (e *edge) Faults() *Faults { return e.faults }

// Engine returns the simulation engine.
func (e *edge) Engine() *eventsim.Engine { return e.eng }

// Config returns the physical constants.
func (e *edge) Config() *Config { return e.cfg }

// Metrics returns the metrics collector.
func (e *edge) Metrics() *Metrics { return e.metrics }

// Hosts returns all hosts, indexed by host ID.
func (e *edge) Hosts() []*Host { return e.hosts }

// NumRacks returns the rack (ToR) count.
func (e *edge) NumRacks() int { return e.racks }

// HostsPerRack returns hosts per rack.
func (e *edge) HostsPerRack() int { return e.hostsPerRack }
