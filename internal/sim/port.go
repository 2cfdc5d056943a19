package sim

import (
	"math/rand"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/freelist"
	"github.com/opera-net/opera/internal/stats"
	"github.com/opera-net/opera/internal/topology"
)

// Node is anything that can receive packets: hosts and switches.
type Node interface {
	// Receive handles a packet arriving from the given port's link.
	Receive(p *Packet, from *Port)
}

// PortStats aggregates a port's counters.
type PortStats struct {
	Tx       [numClasses]stats.Counter // transmitted per class
	Trims    uint64                    // data packets cut to headers
	HdrDrops uint64                    // header-queue overflow drops
	BulkDrop uint64                    // bulk-queue overflow drops
	Stale    uint64                    // packets rerouted at reconfiguration
	LinkLoss uint64                    // packets lost to a lossy-link gray fault
}

// Port is an output port: three strict-priority queues (control/header,
// low-latency data, bulk) feeding a transmitter, connected by a
// fixed-latency link to a destination resolved at transmit time (static for
// packet networks, matching-dependent for rotor uplinks).
type Port struct {
	eng  *eventsim.Engine
	cfg  *Config
	name string

	// resolve returns the node at the far side of the link at transmit
	// time. For static links this is constant; for a rotor-switch uplink it
	// follows the installed matching.
	resolve func(eventsim.Time) Node

	// serMTU and serHdr are cfg.SerializationDelay of an MTU-sized and a
	// header-sized packet, the sizes nearly every packet has, computed
	// once so the transmit path does no float division for them.
	serMTU, serHdr eventsim.Time

	// q and qBytes are the class queues and their queued bytes, indexed
	// by Class, which is also their priority order: control and trimmed
	// headers, low-latency data, bulk data.
	q      [numClasses]freelist.Queue[*Packet]
	qBytes [numClasses]int

	busy    bool
	enabled bool

	// onBulkDrop is invoked for bulk packets dropped by overflow, gating,
	// or reconfiguration flush; typically wired to the RotorLB NACK path
	// (§4.2.2). If nil the packet is counted and released.
	onBulkDrop func(*Packet)

	// inflight is the packet currently being serialized (busy implies
	// non-nil). Holding it in a field instead of a closure keeps the
	// per-packet transmit pipeline allocation-free.
	inflight *Packet
	txH      portTxDone
	dvH      portDeliver

	// Gray-failure state (FaultLossy / FaultDegraded). The zero values
	// mean healthy, so the hot path pays only a nil check and a zero
	// compare when no gray fault is active — no draws, no allocation.
	lossRate float64
	lossRng  *rand.Rand
	derate   float64 // serialization-rate fraction; 0 = full rate

	Stats PortStats
}

// portTxDone and portDeliver are the port's pre-bound event handlers
// (eventsim.Handler): serialization-complete and propagation-complete. They
// are fields of the Port so that &pt.txH / &pt.dvH convert to the Handler
// interface without allocating.
type portTxDone struct{ pt *Port }

func (h *portTxDone) OnEvent(any) { h.pt.txComplete() }

type portDeliver struct{ pt *Port }

func (h *portDeliver) OnEvent(arg any) { h.pt.deliver(arg.(*Packet)) }

// NewPort builds a port owned by eng with a static destination.
func NewPort(eng *eventsim.Engine, cfg *Config, name string, dst Node) *Port {
	return NewDynamicPort(eng, cfg, name, func(eventsim.Time) Node { return dst })
}

// NewDynamicPort builds a port whose destination is resolved per packet at
// transmit-completion time (rotor circuit semantics).
func NewDynamicPort(eng *eventsim.Engine, cfg *Config, name string, resolve func(eventsim.Time) Node) *Port {
	pt := &Port{
		eng:     eng,
		cfg:     cfg,
		name:    name,
		resolve: resolve,
		serMTU:  cfg.SerializationDelay(cfg.MTU),
		serHdr:  cfg.SerializationDelay(topology.DefaultHeaderBytes),
		enabled: true,
	}
	pt.txH.pt = pt
	pt.dvH.pt = pt
	return pt
}

// Name returns the diagnostic name of the port.
func (pt *Port) Name() string { return pt.name }

// SetBulkDropHandler wires the bulk-drop NACK path.
func (pt *Port) SetBulkDropHandler(fn func(*Packet)) { pt.onBulkDrop = fn }

// SetLossRate makes the port a lossy gray link: each packet completing
// serialization is independently lost with the given probability, drawn
// from a generator seeded here — so loss patterns are deterministic under
// the engine's tie-order rules regardless of scenario parallelism. A rate
// <= 0 clears the impairment. The generator is allocated at injection
// time, off the packet hot path.
func (pt *Port) SetLossRate(rate float64, seed int64) {
	if rate <= 0 {
		pt.lossRate, pt.lossRng = 0, nil
		return
	}
	pt.lossRate = rate
	pt.lossRng = grayRand(seed)
}

// SetRateDerating makes the port a degraded gray link serializing at the
// given fraction of nominal rate (in (0,1)); fractions outside that range
// clear the impairment. Queued and future packets all serialize slower —
// the transceiver is sick, not any one packet.
func (pt *Port) SetRateDerating(fraction float64) {
	if fraction <= 0 || fraction >= 1 {
		pt.derate = 0
		return
	}
	pt.derate = fraction
}

// ClearImpairments removes all gray-failure state (loss and derating).
func (pt *Port) ClearImpairments() {
	pt.lossRate, pt.lossRng, pt.derate = 0, nil, 0
}

// Enqueue admits a packet to its class queue, applying NDP trimming and
// bulk drop policy, and kicks the transmitter.
func (pt *Port) Enqueue(p *Packet) {
	c := ClassLowLatency
	switch {
	case p.IsControl():
		c = ClassControl
	case p.Kind == KindBulk || p.Class == ClassBulk:
		// Bulk-class NDP data (static networks' large flows) rides the
		// bulk queue too, but is trimmed, not dropped, on overflow.
		c = ClassBulk
	}
	switch {
	case pt.admit(p, c):
		pt.maybeTransmit()
	case c == ClassControl:
		pt.Stats.HdrDrops++
		p.Release()
	case p.Kind == KindBulk:
		pt.dropBulk(p)
	default: // NDP data
		pt.trim(p)
	}
}

// admit queues p in class c if the queue's byte bound leaves room.
func (pt *Port) admit(p *Packet, c Class) bool {
	limit := pt.cfg.BulkQueueBytes
	switch c {
	case ClassControl:
		limit = pt.cfg.HeaderQueueBytes
	case ClassLowLatency:
		limit = pt.cfg.DataQueueBytes
	}
	if pt.qBytes[c]+int(p.Size) > limit {
		return false
	}
	pt.q[c].PushBack(p)
	pt.qBytes[c] += int(p.Size)
	return true
}

// trim converts a data packet to a header and re-admits it at control
// priority (NDP packet trimming).
func (pt *Port) trim(p *Packet) {
	pt.Stats.Trims++
	p.Trimmed = true
	p.Size = topology.DefaultHeaderBytes
	if !pt.admit(p, ClassControl) {
		pt.Stats.HdrDrops++
		p.Release()
	}
}

func (pt *Port) dropBulk(p *Packet) {
	pt.Stats.BulkDrop++
	if pt.onBulkDrop != nil {
		pt.onBulkDrop(p)
		return
	}
	p.Release()
}

// SetEnabled gates the transmitter (rotor reconfiguration blackout). While
// disabled, arrivals still queue. Re-enabling kicks the transmitter.
func (pt *Port) SetEnabled(on bool) {
	pt.enabled = on
	if on {
		pt.maybeTransmit()
	}
}

// FlushForReconfig empties the port for a circuit change: bulk packets take
// the drop/NACK path (they were admitted against a circuit that no longer
// exists, §4.2.2); control and low-latency packets are handed to requeue
// for re-routing under the new configuration (stale-packet recovery).
func (pt *Port) FlushForReconfig(requeue func(*Packet)) {
	pt.drain(func(p *Packet) {
		pt.Stats.Stale++
		requeue(p)
	})
}

// DropAll empties the port with failed-cable semantics: queued bulk
// packets take the drop/NACK path, control and low-latency packets are
// simply lost (their transports recover through retransmission). It
// returns how many control/low-latency packets were lost. A transmission
// already in progress still delivers — the cable fails behind it.
func (pt *Port) DropAll() (lost uint64) {
	pt.drain(func(p *Packet) {
		lost++
		p.Release()
	})
	return lost
}

// drain empties the port: bulk packets take the drop/NACK path, control
// and low-latency packets go to other.
//
// Each queue is drained from a snapshot: the drop/NACK and other handlers
// can legally route a packet straight back into this port (the NACK's
// expander path or the new tables may pick the same uplink), and a live
// drain would re-drop such freshly admitted packets — or chase its own tail
// indefinitely. Packets enqueued during the drain were routed with current
// knowledge and stay queued.
func (pt *Port) drain(other func(*Packet)) {
	// All three snapshots are taken before any handler runs: a NACK minted
	// while draining bulk is a freshly routed packet, not a stale one, and
	// must not be re-flushed by the control drain that follows. An empty
	// queue stays in place, its ring ready for what the handlers enqueue.
	var snap [numClasses]freelist.Queue[*Packet]
	for c := range pt.q {
		if pt.q[c].Len() > 0 {
			snap[c], pt.q[c] = pt.q[c], freelist.Queue[*Packet]{}
		}
	}
	for _, c := range [...]Class{ClassBulk, ClassControl, ClassLowLatency} {
		for p, ok := snap[c].PopFront(); ok; p, ok = snap[c].PopFront() {
			pt.qBytes[c] -= int(p.Size)
			if c == ClassBulk {
				pt.dropBulk(p)
			} else {
				other(p)
			}
		}
	}
	// Hand the drained rings back, so per-slice reconfiguration flushes
	// don't shed and regrow them — unless a queue took a new ring for
	// packets enqueued during the drain.
	for c := range pt.q {
		if pt.q[c].Cap() == 0 {
			pt.q[c] = snap[c]
		}
	}
}

// pick dequeues the next packet by strict priority.
func (pt *Port) pick() *Packet {
	for c := range pt.q {
		if p, ok := pt.q[c].PopFront(); ok {
			pt.qBytes[c] -= int(p.Size)
			return p
		}
	}
	return nil
}

func (pt *Port) maybeTransmit() {
	if pt.busy || !pt.enabled {
		return
	}
	p := pt.pick()
	if p == nil {
		return
	}
	pt.busy = true
	pt.inflight = p
	d := pt.serialization(int(p.Size))
	if pt.derate != 0 {
		// Degraded gray link: the transmitter runs at a fraction of its
		// nominal rate, so every packet stretches by 1/derate.
		d = eventsim.Time(float64(d) / pt.derate)
	}
	// ContinueCall: when the transmitter is kicked from inside an event
	// callback (a delivery that enqueued here, a reconfiguration tick), the
	// tx-done hop rides that event's object instead of a pool round trip.
	pt.eng.ContinueCall(d, &pt.txH, nil)
}

// serialization returns cfg.SerializationDelay(bytes), from the port's
// precomputed values for the two common sizes.
func (pt *Port) serialization(bytes int) eventsim.Time {
	switch bytes {
	case pt.cfg.MTU:
		return pt.serMTU
	case topology.DefaultHeaderBytes:
		return pt.serHdr
	}
	return pt.cfg.SerializationDelay(bytes)
}

// txComplete fires when the in-flight packet's last bit leaves the
// transmitter: resolve the far end as of now (rotor semantics), launch the
// propagation-delay delivery, and start the next transmission.
func (pt *Port) txComplete() {
	p := pt.inflight
	pt.inflight = nil
	pt.Stats.Tx[p.Class].Add(int(p.Size))
	if pt.lossRng != nil && pt.lossRng.Float64() < pt.lossRate {
		// Lossy gray link: the bits left the transmitter but never arrive.
		// Same disposition as a dark link below — bulk takes the drop/NACK
		// path, everything else relies on transport retransmission.
		pt.Stats.LinkLoss++
		pt.lose(p)
		pt.busy = false
		pt.maybeTransmit()
		return
	}
	dst := pt.resolve(pt.eng.Now())
	if dst != nil {
		p.dst = dst
		// The propagation hop rides the just-fired tx-done event: one Event
		// object carries the packet through serialize→propagate→deliver.
		// Every port's hop has the one delay cfg.PropDelay, so it goes in
		// the scheduler's fixed-delay lane.
		pt.eng.ContinueFixedCall(pt.cfg.PropDelay, &pt.dvH, p)
	} else {
		// Link dark (no peer): the photons are lost.
		pt.lose(p)
	}
	pt.busy = false
	pt.maybeTransmit()
}

// lose disposes of a transmitted packet that will never arrive: bulk takes
// the drop/NACK path, everything else relies on transport retransmission.
func (pt *Port) lose(p *Packet) {
	if p.Kind == KindBulk {
		pt.dropBulk(p)
	} else {
		p.Release()
	}
}

// deliver fires when a packet's propagation delay elapses: hand it to the
// node that was at the far end of the link when transmission completed.
func (pt *Port) deliver(p *Packet) {
	dst := p.dst
	p.dst = nil
	dst.Receive(p, pt)
}
