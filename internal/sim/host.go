package sim

import (
	"github.com/opera-net/opera/internal/eventsim"
)

// Host is an end host with a single NIC toward its ToR. Its NIC applies the
// same strict-priority queueing as switch ports (control > low-latency >
// bulk), which is what keeps latency-sensitive traffic ahead of bulk at the
// edge (§4.2).
type Host struct {
	ID   int32
	Rack int32

	eng *eventsim.Engine
	cfg *Config
	nic *Port

	// handlers demultiplexes delivered packets to the transports by kind
	// (see Handle).
	handlers [numKinds]func(*Packet)
}

// NewHost builds a host; the NIC is wired by the network assembly.
func NewHost(eng *eventsim.Engine, cfg *Config, id, rack int32) *Host {
	return &Host{ID: id, Rack: rack, eng: eng, cfg: cfg}
}

// Engine returns the simulation engine.
func (h *Host) Engine() *eventsim.Engine { return h.eng }

// Config returns the physical constants.
func (h *Host) Config() *Config { return h.cfg }

// SetNIC attaches the host's uplink port.
func (h *Host) SetNIC(p *Port) { h.nic = p }

// NIC returns the host's uplink port.
func (h *Host) NIC() *Port { return h.nic }

// Send enqueues a packet on the NIC.
func (h *Host) Send(p *Packet) { h.nic.Enqueue(p) }

// Handle claims packets of the given kind delivered to this host for fn,
// replacing any earlier claim. Each transport claims its own kinds when it
// attaches, so the order transports attach in is immaterial; packets of an
// unclaimed kind are released.
func (h *Host) Handle(kind Kind, fn func(*Packet)) { h.handlers[kind] = fn }

// Receive implements Node.
func (h *Host) Receive(p *Packet, _ *Port) {
	if fn := h.handlers[p.Kind]; fn != nil {
		fn(p)
		return
	}
	p.Release()
}
