// Package ndp implements the NDP transport protocol [24] at the level of
// detail the Opera evaluation depends on (§4.2.1): senders blast an initial
// window with zero-RTT start, switches trim overflowing data packets to
// headers that travel at control priority, receivers NACK trimmed packets
// (triggering retransmission) and clock the sender with paced PULLs so that
// aggregate arrival rate converges to the receiver's line rate, and a
// safety retransmission timer recovers from the rare loss of control
// packets. Opera uses NDP for all low-latency traffic; the static baselines
// (folded Clos, expander) use it for all traffic.
package ndp

import (
	"fmt"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/freelist"
	"github.com/opera-net/opera/internal/sim"
)

const (
	// initialWindow is the number of packets sent unsolicited at flow
	// start (≈ one bandwidth-delay product; 8 × 1500 B at 10 Gb/s covers
	// ~9.6 µs of RTT).
	initialWindow = 8
	// rto is the safety retransmission timeout.
	rto = 1 * eventsim.Millisecond
)

// Endpoint is the per-host NDP engine: sender state for outgoing flows,
// receiver state and the PULL pacer for incoming flows.
type Endpoint struct {
	host    *sim.Host
	metrics *sim.Metrics

	// PULL pacing: one pull per MTU serialization time, round-robin across
	// flows with credits. paceH is the pre-bound pacer tick
	// (eventsim.Handler), so per-pull scheduling allocates nothing.
	pullCredits freelist.Queue[*sim.Flow] // one entry per credit, each holding a flow reference
	pacing      bool
	paceH       pacerTick

	// pools is the fabric-wide flow state — tables and free lists — shared
	// by every endpoint of one Attach call (they all run on the cluster's
	// single engine goroutine).
	pools *flowPools
}

// flowPools holds every sendFlow and recvFlow of the fabric and recycles
// them — and, through them, their ACK/got bitmaps and rtx rings — across
// flows. A struct is entered in its table once, when first allocated, and
// keeps that slot for life; the flow it currently serves carries the slot
// (sim.Flow.SendSlot/RecvSlot, 0 = none), so every ACK, NACK, PULL and
// data arrival finds its state by index. A sender is released once fully
// ACKed and a receiver at completion, under either retention policy: a
// straggler of a finished flow is answered without state. Without pooling a
// flow-churn-heavy soak would allocate and free one of each per flow
// forever; with pooling the steady state is allocation-free.
type flowPools struct {
	send freelist.Pool[sendFlow]
	recv freelist.Pool[recvFlow]

	sendTab []*sendFlow // [0] is nil: slot 0 means no state
	recvTab []*recvFlow
}

// resetBits returns a zeroed bitmap of the given word count, reusing b's
// backing array when it is large enough.
func resetBits(b []uint64, words int32) []uint64 {
	if cap(b) < int(words) {
		return make([]uint64, words)
	}
	b = b[:words]
	for i := range b {
		b[i] = 0
	}
	return b
}

// Attach installs an NDP endpoint on every host, claiming NDP's four packet
// kinds there, and returns the endpoints as the cluster's Transport.
func Attach(hosts []*sim.Host, metrics *sim.Metrics) *Fabric {
	eps := make([]*Endpoint, len(hosts))
	pools := &flowPools{sendTab: make([]*sendFlow, 1), recvTab: make([]*recvFlow, 1)}
	for i, h := range hosts {
		ep := &Endpoint{host: h, metrics: metrics, pools: pools}
		ep.paceH.ep = ep
		h.Handle(sim.KindData, ep.onData)
		h.Handle(sim.KindAck, ep.onAck)
		h.Handle(sim.KindNack, ep.onNack)
		h.Handle(sim.KindPull, ep.onPull)
		eps[i] = ep
	}
	return &Fabric{eps: eps}
}

// sendFlow is pooled sender state: flows draw it from the fabric's free
// list and return it once fully ACKed. ep is rebound at acquisition; the
// embedded rto Timer dispatches to the sendFlow itself (it implements
// eventsim.Handler), so a recycled flow needs no per-flow closure or Timer
// allocation.
type sendFlow struct {
	ep      *Endpoint
	f       *sim.Flow
	slot    int32 // its place in flowPools.sendTab
	total   int32 // packets
	nextNew int32
	// rtx queues NACKed sequence numbers awaiting retransmission; its
	// ring is kept across flows.
	rtx    freelist.Queue[int32]
	acked  []uint64
	nAcked int32
	rto    eventsim.Timer
}

// OnEvent implements eventsim.Handler: the flow's RTO fired.
func (sf *sendFlow) OnEvent(any) { sf.ep.onRTO(sf) }

type recvFlow struct {
	f    *sim.Flow
	slot int32 // its place in flowPools.recvTab
	got  []uint64
}

// StartFlow begins sending flow f from this endpoint's host. The flow must
// originate here.
func (ep *Endpoint) StartFlow(f *sim.Flow) {
	if f.SrcHost != ep.host.ID {
		panic(fmt.Sprintf("ndp: flow %d starts at host %d, not %d", f.ID, f.SrcHost, ep.host.ID))
	}
	total := packets(f, ep.host.Config())
	sf := ep.pools.send.Get()
	if sf == nil {
		sf = &sendFlow{slot: int32(len(ep.pools.sendTab))}
		ep.pools.sendTab = append(ep.pools.sendTab, sf)
	}
	for sf.rtx.Len() > 0 {
		sf.rtx.PopFront() // NACKed seqs a finished flow never resent
	}
	*sf = sendFlow{
		ep:    ep,
		f:     f,
		slot:  sf.slot,
		total: total,
		rtx:   sf.rtx,
		acked: resetBits(sf.acked, (total+63)/64),
	}
	sf.rto.BindCall(ep.host.Engine(), sf, nil)
	f.Ref()
	f.SendSlot = sf.slot
	f.Start = ep.host.Engine().Now()

	iw := min(initialWindow, total)
	for i := int32(0); i < iw; i++ {
		ep.sendData(sf, sf.nextNew)
		sf.nextNew++
	}
	sf.rto.Arm(rto)
}

// packets returns how many MTU-sized data packets carry f: at least one.
func packets(f *sim.Flow, cfg *sim.Config) int32 {
	mtu := int64(cfg.MTU)
	return max(int32((f.Size+mtu-1)/mtu), 1)
}

// sendData emits one data packet of the flow.
func (ep *Endpoint) sendData(sf *sendFlow, seq int32) {
	cfg := ep.host.Config()
	f := sf.f
	mtu := int64(cfg.MTU)
	size := mtu
	if rem := f.Size - int64(seq)*mtu; rem < size {
		size = rem
	}
	if size <= 0 {
		size = 1
	}
	p := sim.NewPacket()
	p.Kind = sim.KindData
	p.Class = f.Class
	p.SrcHost, p.DstHost = f.SrcHost, f.DstHost
	p.SrcRack, p.DstRack = f.SrcRack, f.DstRack
	p.Size = int32(size)
	p.PayloadSize = int32(size)
	p.Flow = f
	f.Ref()
	p.Seq = seq
	ep.host.Send(p)
}

// recvState finds the receiver state of a flow that is not yet done, or
// creates it on first contact.
func (ep *Endpoint) recvState(f *sim.Flow) *recvFlow {
	if rf := ep.pools.recvTab[f.RecvSlot]; rf != nil {
		return rf
	}
	rf := ep.pools.recv.Get()
	if rf == nil {
		rf = &recvFlow{slot: int32(len(ep.pools.recvTab))}
		ep.pools.recvTab = append(ep.pools.recvTab, rf)
	}
	*rf = recvFlow{f: f, slot: rf.slot, got: resetBits(rf.got, (packets(f, ep.host.Config())+63)/64)}
	f.Ref()
	f.RecvSlot = rf.slot
	return rf
}

// releaseSend returns completed sender state to the fabric pool. The RTO is
// stopped (idempotently) before the struct can back another flow: a live
// timer would otherwise fire into the wrong flow's state.
func (ep *Endpoint) releaseSend(sf *sendFlow) {
	sf.rto.Stop()
	sf.f.SendSlot = 0
	sf.f.Unref()
	sf.f = nil
	ep.pools.send.Put(sf)
}

func (ep *Endpoint) releaseRecv(rf *recvFlow) {
	rf.f.RecvSlot = 0
	rf.f.Unref()
	rf.f = nil
	ep.pools.recv.Put(rf)
}

// onData handles arrival of a data packet (full or trimmed) at the
// receiver. The answer needs no per-flow state: a trimmed header draws a
// NACK, a whole packet an ACK, whether or not the receiver still holds the
// flow. Only a whole packet of an unfinished flow touches the receiver's
// bitmap, and the one that finishes the flow releases it.
func (ep *Endpoint) onData(p *sim.Packet) {
	f := p.Flow
	kind := sim.KindAck
	if p.Trimmed {
		// Header survived; payload was cut: NACK for retransmission.
		kind = sim.KindNack
	} else if !f.Done {
		rf := ep.recvState(f)
		if idx, bit := p.Seq/64, uint64(1)<<uint(p.Seq%64); rf.got[idx]&bit == 0 {
			rf.got[idx] |= bit
			// The flow's last byte finishes it (Metrics.FlowDone).
			ep.metrics.RecordDelivery(f, int(p.PayloadSize), int(p.Hops), ep.host.Engine().Now())
		}
		if f.Done {
			ep.releaseRecv(rf)
		}
	}
	ep.sendCtrl(kind, f, p.Seq)
	if !f.Done {
		ep.addPullCredit(f)
	}
	p.Release()
}

func (ep *Endpoint) onAck(p *sim.Packet) {
	sf := ep.pools.sendTab[p.Flow.SendSlot]
	if sf != nil {
		idx, bit := p.Seq/64, uint(p.Seq%64)
		if sf.acked[idx]&(1<<bit) == 0 {
			sf.acked[idx] |= 1 << bit
			sf.nAcked++
		}
		if sf.nAcked == sf.total {
			// Fully acknowledged: nothing can need this sender state
			// again, so stop its timer and recycle it through the fabric
			// pool.
			ep.releaseSend(sf)
		} else {
			sf.rto.Arm(rto)
		}
	}
	p.Release()
}

func (ep *Endpoint) onNack(p *sim.Packet) {
	sf := ep.pools.sendTab[p.Flow.SendSlot]
	if sf != nil {
		sf.rtx.PushBack(p.Seq)
		sf.f.Retransmits++
		sf.rto.Arm(rto)
	}
	p.Release()
}

func (ep *Endpoint) onPull(p *sim.Packet) {
	sf := ep.pools.sendTab[p.Flow.SendSlot]
	if sf != nil {
		if seq, ok := sf.rtx.PopFront(); ok {
			ep.sendData(sf, seq)
		} else if sf.nextNew < sf.total {
			ep.sendData(sf, sf.nextNew)
			sf.nextNew++
		}
	}
	p.Release()
}

// onRTO resends the lowest unacked packet — the safety net for lost
// control packets (header-queue overflow).
func (ep *Endpoint) onRTO(sf *sendFlow) {
	for seq := int32(0); seq < sf.total; seq++ {
		if sf.acked[seq/64]&(1<<uint(seq%64)) == 0 {
			ep.sendData(sf, seq)
			sf.f.Retransmits++
			break
		}
	}
	sf.rto.Arm(rto)
}

// sendCtrl emits a control packet (ACK/NACK/PULL) back to the flow's
// sender.
func (ep *Endpoint) sendCtrl(kind sim.Kind, f *sim.Flow, seq int32) {
	p := sim.NewPacket()
	p.Kind = kind
	p.Class = sim.ClassControl
	p.SrcHost, p.DstHost = f.DstHost, f.SrcHost
	p.SrcRack, p.DstRack = f.DstRack, f.SrcRack
	p.Size = int32(ep.host.Config().HeaderBytes)
	p.Flow = f
	f.Ref()
	p.Seq = seq
	ep.host.Send(p)
}

// addPullCredit enqueues one pull credit for the flow and kicks the pacer.
func (ep *Endpoint) addPullCredit(f *sim.Flow) {
	f.Ref()
	ep.pullCredits.PushBack(f)
	ep.pace()
}

// pace emits pulls one MTU-time apart while credits remain.
func (ep *Endpoint) pace() {
	if ep.pacing || ep.pullCredits.Len() == 0 {
		return
	}
	ep.pacing = true
	cfg := ep.host.Config()
	spacing := cfg.SerializationDelay(cfg.MTU)
	// ContinueCall: a pacer tick that re-arms itself (or a delivery that
	// granted the first credit) hands its just-fired event straight to the
	// next tick.
	ep.host.Engine().ContinueCall(spacing, &ep.paceH, nil)
}

// pacerTick is the endpoint's pre-bound pacer callback: issue the next pull
// and reschedule while credits remain.
type pacerTick struct{ ep *Endpoint }

func (h *pacerTick) OnEvent(any) {
	ep := h.ep
	ep.pacing = false
	f, ok := ep.pullCredits.PopFront()
	if !ok {
		return
	}
	if !f.Done {
		ep.sendCtrl(sim.KindPull, f, 0)
	}
	f.Unref()
	ep.pace()
}
