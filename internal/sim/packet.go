// Package sim is the packet-level network simulator underlying the Opera
// evaluation — a from-scratch reconstruction of the modelling layer the
// paper borrowed from htsim [26]: store-and-forward output-queued switches,
// links with serialization and propagation delay, bounded priority queues
// with NDP-style packet trimming, and hosts with strict-priority NICs.
//
// The simulator is deliberately protocol-agnostic: transport logic (NDP for
// low-latency traffic, RotorLB for bulk) lives in the ndp and rotorlb
// packages and attaches by claiming packet kinds on hosts. Network
// assemblies (Opera, static expander, folded Clos, RotorNet) are built from
// the same parts in this package's network files.
package sim

import (
	"fmt"
	"sync"

	"github.com/opera-net/opera/internal/eventsim"
)

// Class is a packet's scheduling class; smaller is served first.
type Class uint8

// Scheduling classes, in strict priority order at every port.
const (
	ClassControl Class = iota // ACK/NACK/PULL and trimmed headers
	ClassLowLatency
	ClassBulk
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassControl:
		return "ctrl"
	case ClassLowLatency:
		return "lowlat"
	case ClassBulk:
		return "bulk"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Kind discriminates packet roles within the transports.
type Kind uint8

// Packet kinds.
const (
	KindData     Kind = iota // NDP data (full or trimmed)
	KindAck                  // NDP per-packet ACK
	KindNack                 // NDP NACK (trimmed header arrived)
	KindPull                 // NDP pull (receiver-paced credit)
	KindBulk                 // RotorLB bulk data
	KindBulkNack             // RotorLB ToR-drop NACK (§4.2.2)
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindNack:
		return "nack"
	case KindPull:
		return "pull"
	case KindBulk:
		return "bulk"
	case KindBulkNack:
		return "bulknack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is the unit of simulation. Packets are pooled; they must be
// released exactly once (by the component that consumes them) and never
// referenced afterwards.
type Packet struct {
	Kind  Kind
	Class Class

	SrcHost, DstHost int32
	SrcRack, DstRack int32

	// Size is the wire size in bytes, including headers. Trimmed packets
	// carry HeaderBytes on the wire; PayloadSize remembers the original.
	Size        int32
	PayloadSize int32
	Trimmed     bool

	// Flow is the transport flow the packet belongs to; Seq is the packet
	// index within it (NDP).
	Flow *Flow
	Seq  int32

	// PullNo is the pull counter for KindPull; for KindBulk it carries the
	// final destination rack while the packet rides a two-hop VLB detour.
	PullNo int32

	// RelayRack is the intermediate rack for VLB bulk (-1 when direct).
	RelayRack int32

	// SliceTag is the topology slice annotated at the first ToR (§4.3);
	// -1 until stamped.
	SliceTag int64

	// Hops counts ToR-to-ToR traversals, used for bandwidth-tax accounting.
	Hops int8

	// OrigHops preserves, on a KindBulkNack, the hop count of the failed
	// packet (the NACK's own Hops field mutates as it is routed back).
	OrigHops int8

	// EnqueuedAt supports queue-latency metrics.
	EnqueuedAt eventsim.Time

	// dst is the resolved far-end node while the packet is in flight on a
	// link (set at transmit-completion, cleared on delivery). Carrying it
	// here lets ports schedule deliveries without a per-packet closure.
	dst Node
}

var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket draws a zeroed packet from the pool.
func NewPacket() *Packet {
	p := packetPool.Get().(*Packet)
	*p = Packet{SliceTag: -1, RelayRack: -1}
	return p
}

// Release returns the packet to the pool.
func (p *Packet) Release() { packetPool.Put(p) }

// IsControl reports whether the packet is transport signalling (always
// forwarded at highest priority and never trimmed or dropped by data-queue
// limits).
func (p *Packet) IsControl() bool {
	switch p.Kind {
	case KindAck, KindNack, KindPull, KindBulkNack:
		return true
	}
	return p.Trimmed
}
