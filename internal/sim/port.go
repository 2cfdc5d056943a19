package sim

import (
	"math/rand"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/stats"
)

// Node is anything that can receive packets: hosts and switches.
type Node interface {
	// Receive handles a packet arriving from the given port's link.
	Receive(p *Packet, from *Port)
}

// pktFIFO is a simple ring-buffer packet queue. The ring's length is a
// power of two (it starts at 8 and doubles), so indices wrap with a mask.
type pktFIFO struct {
	buf  []*Packet
	head int
	n    int
}

func (q *pktFIFO) push(p *Packet) {
	if q.n == len(q.buf) {
		grow := make([]*Packet, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grow[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf = grow
		q.head = 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

func (q *pktFIFO) pop() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return p
}

func (q *pktFIFO) len() int { return q.n }

// take removes and returns the queue's current contents as a snapshot,
// leaving the queue empty. Packets pushed while the snapshot is processed
// land in the live queue and are NOT part of the snapshot — this is what
// makes the reconfiguration drains safe against handlers (NACK paths) that
// re-enqueue into the very queue being drained.
func (q *pktFIFO) take() pktFIFO {
	if q.n == 0 {
		return pktFIFO{}
	}
	snap := *q
	*q = pktFIFO{}
	return snap
}

// giveBack returns a fully drained snapshot's backing array to the queue,
// so per-slice reconfiguration flushes don't shed and regrow ring buffers.
// It is a no-op if the queue acquired a new buffer in the meantime (packets
// re-enqueued during the drain) or the snapshot still holds packets.
func (q *pktFIFO) giveBack(snap pktFIFO) {
	if q.buf == nil && snap.n == 0 && snap.buf != nil {
		q.buf = snap.buf
		q.head = 0
	}
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
	prop    eventsim.Time

	ctrl pktFIFO // control + trimmed headers (highest priority)
	ll   pktFIFO // low-latency data
	bulk pktFIFO // bulk data (lowest priority)

	ctrlBytes, llBytes, bulkBytes int

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
		prop:    cfg.PropDelay,
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

// QueuedBytes returns the bytes currently queued in the given class queue.
func (pt *Port) QueuedBytes(c Class) int {
	switch c {
	case ClassControl:
		return pt.ctrlBytes
	case ClassLowLatency:
		return pt.llBytes
	default:
		return pt.bulkBytes
	}
}

// Enabled reports whether the transmitter is running.
func (pt *Port) Enabled() bool { return pt.enabled }

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

// Enqueue admits a packet to the appropriate queue, applying NDP trimming
// and bulk drop policy, and kicks the transmitter.
func (pt *Port) Enqueue(p *Packet) {
	p.EnqueuedAt = pt.eng.Now()
	switch {
	case p.IsControl():
		if pt.ctrlBytes+int(p.Size) > pt.cfg.HeaderQueueBytes {
			pt.Stats.HdrDrops++
			p.Release()
			return
		}
		pt.ctrl.push(p)
		pt.ctrlBytes += int(p.Size)
	case p.Kind == KindBulk:
		if pt.bulkBytes+int(p.Size) > pt.cfg.BulkQueueBytes {
			pt.dropBulk(p)
			return
		}
		pt.bulk.push(p)
		pt.bulkBytes += int(p.Size)
	default: // NDP data
		if p.Class == ClassBulk {
			// Bulk-class NDP data (static networks' large flows): rides the
			// bulk queue but is trimmed, not dropped, on overflow.
			if pt.bulkBytes+int(p.Size) > pt.cfg.BulkQueueBytes {
				pt.trim(p)
				return
			}
			pt.bulk.push(p)
			pt.bulkBytes += int(p.Size)
		} else {
			if pt.llBytes+int(p.Size) > pt.cfg.DataQueueBytes {
				pt.trim(p)
				return
			}
			pt.ll.push(p)
			pt.llBytes += int(p.Size)
		}
	}
	pt.maybeTransmit()
}

// trim converts a data packet to a header and re-admits it at control
// priority (NDP packet trimming).
func (pt *Port) trim(p *Packet) {
	pt.Stats.Trims++
	p.Trimmed = true
	p.Size = int32(pt.cfg.HeaderBytes)
	if pt.ctrlBytes+int(p.Size) > pt.cfg.HeaderQueueBytes {
		pt.Stats.HdrDrops++
		p.Release()
		return
	}
	pt.ctrl.push(p)
	pt.ctrlBytes += int(p.Size)
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
	// must not be re-flushed by the control drain that follows.
	bulk, ctrl, ll := pt.bulk.take(), pt.ctrl.take(), pt.ll.take()
	for p := bulk.pop(); p != nil; p = bulk.pop() {
		pt.bulkBytes -= int(p.Size)
		pt.dropBulk(p)
	}
	for p := ctrl.pop(); p != nil; p = ctrl.pop() {
		pt.ctrlBytes -= int(p.Size)
		other(p)
	}
	for p := ll.pop(); p != nil; p = ll.pop() {
		pt.llBytes -= int(p.Size)
		other(p)
	}
	pt.bulk.giveBack(bulk)
	pt.ctrl.giveBack(ctrl)
	pt.ll.giveBack(ll)
}

// pick dequeues the next packet by strict priority.
func (pt *Port) pick() *Packet {
	if p := pt.ctrl.pop(); p != nil {
		pt.ctrlBytes -= int(p.Size)
		return p
	}
	if p := pt.ll.pop(); p != nil {
		pt.llBytes -= int(p.Size)
		return p
	}
	if p := pt.bulk.pop(); p != nil {
		pt.bulkBytes -= int(p.Size)
		return p
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
	d := pt.cfg.SerializationDelay(int(p.Size))
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
		pt.eng.ContinueCall(pt.prop, &pt.dvH, p)
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
