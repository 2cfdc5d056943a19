// Package rotorlb implements the RotorLB bulk transport from RotorNet [34]
// as extended by Opera (§4.2.2): end hosts buffer bulk traffic in
// per-destination-rack virtual output queues and transmit — when polled in
// sync with the circuit schedule — over direct one-hop circuits, falling
// back to two-hop Valiant load balancing when traffic is skewed and spare
// circuit capacity exists elsewhere. Opera's contribution, the NACK
// mechanism for bulk packets stranded at a ToR when its circuit
// reconfigures, is implemented via the simulator's port-flush path feeding
// KindBulkNack packets back to senders, which requeue the bytes.
//
// Service order within a circuit's transmission window follows RotorNet's
// RotorLB: (1) stored non-local (relayed) traffic, (2) local direct
// traffic, (3) freshly admitted two-hop traffic negotiated by an
// offer/accept exchange at slice start.
package rotorlb

import (
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/freelist"
	"github.com/opera-net/opera/internal/sim"
)

const (
	// relayBufferBytes caps the relayed (VLB) bytes a rack will store.
	relayBufferBytes = 8 << 20
	// startMargin delays the first transmission after a slice boundary to
	// cover host-to-ToR latency (grant propagation).
	startMargin = 2 * eventsim.Microsecond
)

// segment is a run of contiguous flow bytes awaiting transmission, resident
// at a specific host (the flow's origin, or the storage host for relayed
// bytes).
type segment struct {
	f     *sim.Flow
	host  int32 // host holding the bytes
	bytes int64
	hops  int8 // ToR-to-ToR hops already incurred (VLB first leg)
}

// segQueue is a double-ended queue of segments with byte accounting, kept
// in a power-of-two ring so that the tail push of a new flow, the head push
// of a NACK requeue and the pop of a drained head are all O(1) and reuse
// one buffer.
type segQueue struct {
	buf   []segment // ring; len is zero or a power of two
	head  int       // buf index of logical segment 0
	n     int       // segments held
	bytes int64
}

// at returns logical segment i (0 = head).
func (q *segQueue) at(i int) *segment { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// grow doubles the ring, unwrapping it so the head lands at index 0.
func (q *segQueue) grow() {
	buf := make([]segment, max(8, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

func (q *segQueue) push(s segment) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.n++
	*q.at(q.n - 1) = s
	q.bytes += s.bytes
}

func (q *segQueue) pushFront(s segment) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.n++
	q.buf[q.head] = s
	q.bytes += s.bytes
}

// popFront drops the head segment; its bytes must already be accounted.
func (q *segQueue) popFront() {
	q.buf[q.head] = segment{} // do not pin the flow
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// peekHost returns the host holding the queue's head bytes.
func (q *segQueue) peekHost() (int32, bool) {
	for q.n > 0 && q.at(0).bytes == 0 {
		q.popFront()
	}
	if q.n == 0 {
		return -1, false
	}
	return q.at(0).host, true
}

// carve removes up to maxBytes from the queue head, returning the chunk.
func (q *segQueue) carve(maxBytes int64) (segment, bool) {
	return q.carveReady(maxBytes, nil)
}

// carveReady removes up to maxBytes from the first segment whose host
// satisfies ready (nil = any). Skipping busy hosts models the ToR polling
// whichever host has transmittable data for this circuit (§3.5) — without
// it, concurrent sessions head-of-line block on each other's hosts while
// other NICs idle. The scan is bounded to keep service near-FIFO.
func (q *segQueue) carveReady(maxBytes int64, ready func(host int32) bool) (segment, bool) {
	const scanLimit = 16
	scanned := 0
	for i := 0; i < q.n; i++ {
		seg := q.at(i)
		if seg.bytes == 0 {
			continue
		}
		if ready != nil && !ready(seg.host) {
			if scanned++; scanned >= scanLimit {
				return segment{}, false
			}
			continue
		}
		n := seg.bytes
		if n > maxBytes {
			n = maxBytes
		}
		out := segment{f: seg.f, host: seg.host, bytes: n, hops: seg.hops}
		seg.bytes -= n
		q.bytes -= n
		if seg.bytes == 0 {
			// Close the gap from the front: the segments skipped on the way
			// here (the short side, bounded by scanLimit) move back one.
			for ; i > 0; i-- {
				*q.at(i) = *q.at(i - 1)
			}
			q.popFront()
		}
		return out, true
	}
	return segment{}, false
}

// LB is the cluster-wide RotorLB instance: one rack agent per ToR.
type LB struct {
	net    sim.CircuitNetwork
	agents []*rackAgent

	// vlbThreshold: a destination queue longer than this is eligible for
	// two-hop offloading. It is one cycle's worth of direct drainage for a
	// rack pair: a shorter queue will clear on its own circuits, so
	// indirecting it would pay a 100% tax for nothing.
	vlbThreshold int64

	// txTime is one MTU's serialization time: the cadence of a sending
	// session, and a tenth of an idle one's polling period. closeMargin is
	// how long before its deadline a session stops: enough for a packet to
	// clear the host NIC (which hostReady lets run up to ~4 packets deep),
	// serialize at the ToR and propagate before the blackout.
	txTime, closeMargin eventsim.Time

	// Per-slice state recycled across slice boundaries: closed sessions
	// (each keeping its vlbQ ring) and the ActiveCircuits scratch buffer.
	sessions freelist.Pool[session]
	circuits []sim.Circuit

	// polls holds the live poll batches, one per instant some idle session
	// waits for — a handful, so park finds one by scanning. Fired batches
	// are recycled through pollPool with their member slices.
	polls    []*pollBatch
	pollPool freelist.Pool[pollBatch]

	// NACKs counts requeue events observed by senders.
	NACKs uint64
}

// LB admits bulk flows directly: it is the cluster-wide Transport for the
// bulk service class on circuit fabrics.
var _ sim.Transport = (*LB)(nil)

// Attach installs RotorLB on the network: it claims bulk deliveries and
// bulk NACKs on every host, and a slice listener opens the transmission
// sessions.
func Attach(net sim.CircuitNetwork) *LB {
	lb := &LB{net: net}
	cfg := net.Config()
	lb.txTime = cfg.SerializationDelay(cfg.MTU)
	lb.closeMargin = 7*lb.txTime + 2*cfg.PropDelay
	w := cfg.BytesIn(net.SliceDuration())
	lb.vlbThreshold = int64(w) * int64(net.PairWindowsPerCycle())
	n := net.NumRacks()
	lb.agents = make([]*rackAgent, n)
	for r := 0; r < n; r++ {
		lb.agents[r] = newRackAgent(lb, r)
	}
	for _, h := range net.Hosts() {
		h.Handle(sim.KindBulk, func(p *sim.Packet) { lb.onBulk(h, p) })
		h.Handle(sim.KindBulkNack, func(p *sim.Packet) { lb.onNack(h, p) })
		// A bulk packet squeezed out of the host's own NIC (low-latency
		// traffic monopolized the link) never left the host: requeue the
		// bytes locally instead of losing them.
		h.NIC().SetBulkDropHandler(func(p *sim.Packet) { lb.requeueLocal(h, p) })
	}
	net.OnSlice(lb.onSlice)
	return lb
}

// requeueLocal returns a bulk packet that never left its host to the
// appropriate queue.
func (lb *LB) requeueLocal(h *sim.Host, p *sim.Packet) {
	f := p.Flow
	a := lb.agents[h.Rack]
	seg := segment{f: f, host: h.ID, bytes: int64(p.PayloadSize), hops: p.Hops}
	switch {
	case p.RelayRack >= 0:
		seg.hops = 0
		a.voq[p.DstRack].pushFront(seg)
	case f.SrcHost == h.ID:
		a.voq[p.DstRack].pushFront(seg)
	default:
		a.relay[p.DstRack].pushFront(seg)
		a.relayTotal += seg.bytes
	}
	p.Release()
}

// Agent returns the rack agent (exported for tests and metrics).
func (lb *LB) Agent(rack int) *rackAgent { return lb.agents[rack] }

// StartFlow admits a bulk flow at its source host's rack agent.
func (lb *LB) StartFlow(f *sim.Flow) {
	f.Start = lb.net.Engine().Now()
	a := lb.agents[f.SrcRack]
	if f.DstRack == f.SrcRack {
		a.sendLocal(f)
		return
	}
	a.voq[f.DstRack].push(segment{f: f, host: f.SrcHost, bytes: f.Size})
}

// QueuedBytes returns the bulk backlog across all racks: own and relayed
// queues plus the bytes open sessions hold admitted for VLB.
func (lb *LB) QueuedBytes() int64 {
	var total int64
	for _, a := range lb.agents {
		total += a.vlbHeld
		for r := range a.voq {
			total += a.voq[r].bytes + a.relay[r].bytes
		}
	}
	return total
}

// StrandedBytes returns VLB bytes parked at relay racks that cannot
// currently reach the bytes' final destination over any direct circuit.
// This surfaces a known model gap under failures: RotorLB never
// re-offloads stored relay traffic to a third rack (§4.2.2 covers only
// first-leg offload), so when a relay's second leg dies the bytes wait
// at the relay until the destination becomes directly reachable again.
// Zero in a fault-free fabric, where every rack cycles through direct
// circuits to every other rack.
func (lb *LB) StrandedBytes() int64 {
	var total int64
	for rack, a := range lb.agents {
		for dst := range a.relay {
			if a.relay[dst].bytes > 0 && !lb.net.DirectReachable(rack, dst) {
				total += a.relay[dst].bytes
			}
		}
	}
	return total
}

func (lb *LB) onSlice(abs int64) {
	for _, a := range lb.agents {
		a.openSessions(abs)
	}
}

// pollBatch is the one engine event behind every session waiting for data
// at the same instant. Idle sessions poll on a common grid — the window
// start, then every 10 txTime — so the polls due at one instant were
// scheduled back to back, by handlers that schedule nothing else for that
// instant: a contiguous run in the engine's (time, seq) order. One event
// standing where the run starts, pumping the members in the order they
// parked, executes every handler at the point of the total order its own
// event held. (What would sit inside a run is an unrelated event scheduled
// from a poll instant exactly 10 txTime ahead; nothing in the simulator
// schedules that far onto the grid. CONTRIBUTING, tie order.)
type pollBatch struct {
	lb      *LB
	at      eventsim.Time
	members []*session
}

// park makes s wait for data until at: it joins the batch due then, or
// starts one — whose event is scheduled here, where the session's own used
// to be.
func (lb *LB) park(s *session, at eventsim.Time) {
	for _, b := range lb.polls {
		if b.at == at {
			b.members = append(b.members, s)
			return
		}
	}
	b := lb.pollPool.Get()
	if b == nil {
		b = &pollBatch{lb: lb}
	}
	b.at = at
	b.members = append(b.members, s)
	lb.polls = append(lb.polls, b)
	lb.net.Engine().AtCall(at, b, nil)
}

// OnEvent implements eventsim.Handler: the batch is due. Each member
// pumps as it would have from its own event — it sends and goes back to
// its own txTime chain, closes, or parks again for the next grid point.
func (b *pollBatch) OnEvent(any) {
	lb := b.lb
	for i, live := range lb.polls {
		if live == b {
			lb.polls = append(lb.polls[:i], lb.polls[i+1:]...)
			break
		}
	}
	for _, s := range b.members {
		s.pump()
	}
	b.members = b.members[:0]
	lb.pollPool.Put(b)
}

// onBulk handles a bulk packet delivered to a host: final delivery or VLB
// storage.
func (lb *LB) onBulk(h *sim.Host, p *sim.Packet) {
	f := p.Flow
	if p.DstRack == h.Rack && p.DstHost == h.ID {
		m := lb.net.Metrics()
		m.RecordDelivery(f, int(p.PayloadSize), int(p.Hops), lb.net.Engine().Now())
		if f.BytesRcvd >= f.Size {
			m.FlowDone(f, lb.net.Engine().Now())
		}
		p.Release()
		return
	}
	// VLB storage at the relay rack.
	a := lb.agents[h.Rack]
	a.relay[p.DstRack].push(segment{f: f, host: h.ID, bytes: int64(p.PayloadSize), hops: p.Hops})
	a.relayTotal += int64(p.PayloadSize)
	p.Release()
}

// onNack requeues bytes reported lost by a ToR (§4.2.2). The NACK arrives
// at the host that transmitted the failed packet.
func (lb *LB) onNack(h *sim.Host, p *sim.Packet) {
	f := p.Flow
	lb.NACKs++
	f.Retransmits++
	a := lb.agents[h.Rack]
	finalDst := p.PullNo
	// OrigHops includes the uplink the packet was enqueued on but never
	// crossed; requeue with one hop less.
	hops := p.OrigHops - 1
	if hops < 0 {
		hops = 0
	}
	seg := segment{f: f, host: h.ID, bytes: int64(p.PayloadSize), hops: hops}
	switch {
	case p.RelayRack >= 0:
		// Failed VLB first leg: revert to the origin queue; the direct path
		// or a later offer will carry it.
		seg.hops = 0
		a.voq[finalDst].pushFront(seg)
	case f.SrcHost == h.ID:
		a.voq[finalDst].pushFront(seg)
	default:
		// Failed second leg from a storage host.
		a.relay[finalDst].pushFront(seg)
		a.relayTotal += seg.bytes
	}
	p.Release()
}
