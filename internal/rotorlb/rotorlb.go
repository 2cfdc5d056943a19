// Package rotorlb implements the RotorLB bulk transport from RotorNet [34]
// as extended by Opera (§4.2.2): end hosts buffer bulk traffic in
// per-destination-rack virtual output queues and transmit — when polled in
// sync with the circuit schedule — over direct one-hop circuits, falling
// back to two-hop Valiant load balancing when traffic is skewed and spare
// circuit capacity exists elsewhere. Opera's contribution, the NACK
// mechanism for bulk packets stranded at a ToR when its circuit
// reconfigures, is implemented via the simulator's port-flush path feeding
// KindBulkNack packets back to senders, which give the bytes back to
// their queues (rackAgent.hold, the one place a rack's bytes come to
// rest).
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

// segment is a chunk of contiguous flow bytes awaiting transmission,
// resident at a specific host (the flow's origin, or the storage host for
// relayed bytes).
type segment struct {
	f     *sim.Flow
	bytes int64
	host  int32 // host holding the bytes
	hops  int8  // ToR-to-ToR hops already incurred (VLB first leg)
}

// run is one queue entry: a segment followed by more segments with the
// same flow, host and hops, each holding unit bytes. A burst of NACKs
// requeues one packet's worth at a time at the head, and a relay stores
// one packet's worth at a time at the tail, so either is one entry. Only
// the first segment is ever partly carved. An empty segment is never
// merged, so a run with more > 0 has first and unit bytes both nonzero.
type run struct {
	segment       // the first segment: the one carve acts on
	unit    int64 // bytes of each segment behind the first
	// more is bounded by a queue's segments: one per flow, plus its packets
	// stored at a relay (8 MB at most) or NACKed while in flight.
	more int32
}

// joins reports whether s may extend the run: both hold bytes and s has
// its flow, host and hops.
func (r *run) joins(s segment) bool {
	return s.bytes > 0 && r.bytes > 0 && r.f == s.f && r.host == s.host && r.hops == s.hops
}

// scanLimit bounds how many segments on hosts that are not ready
// carveReady passes over before it gives up.
const scanLimit = 16

// segQueue is a double-ended queue of segments with byte accounting, kept
// as a ring of runs so that the tail push of a new flow or a relayed
// packet, the head push of a NACK requeue and the pop of a drained head
// are all O(1), reuse one buffer, and take no new entry when the segment
// repeats its neighbour. Every operation returns what it would on the
// expanded one-entry-per-segment queue. A new run is pushed zeroed and its
// segment written in place: pushing a run literal by value builds it on
// the stack and copies it out, a stall BenchmarkSegQueueRequeue shows.
type segQueue struct {
	runs  freelist.Queue[run]
	bytes int64
}

// push appends s, extending the tail run when s repeats its last segment's
// flow, host, hops and bytes (or the run is a single segment).
func (q *segQueue) push(s segment) {
	q.bytes += s.bytes
	if n := q.runs.Len(); n > 0 {
		if r := q.runs.At(n - 1); r.joins(s) && (r.more == 0 || r.unit == s.bytes) {
			r.unit = s.bytes
			r.more++
			return
		}
	}
	q.runs.PushBack(run{})
	q.runs.At(q.runs.Len() - 1).segment = s
}

// pushFront prepends s, extending the head run when s has its flow, host
// and hops and the run is uniform: s becomes the first segment and the old
// first one the run's unit.
func (q *segQueue) pushFront(s segment) {
	q.bytes += s.bytes
	if q.runs.Len() > 0 {
		if r := q.runs.At(0); r.joins(s) && (r.more == 0 || r.unit == r.bytes) {
			r.unit, r.bytes = r.bytes, s.bytes
			r.more++
			return
		}
	}
	q.runs.PushFront(run{})
	q.runs.At(0).segment = s
}

// peekHost returns the host holding the queue's head bytes.
func (q *segQueue) peekHost() (int32, bool) {
	for q.runs.Len() > 0 && q.runs.At(0).bytes == 0 {
		q.runs.PopFront() // an empty segment is a run of its own
	}
	if q.runs.Len() == 0 {
		return -1, false
	}
	return q.runs.At(0).host, true
}

// carve removes up to maxBytes from the queue head, returning the chunk.
func (q *segQueue) carve(maxBytes int64) (segment, bool) {
	return q.carveReady(maxBytes, nil)
}

// carveReady removes up to maxBytes from the first segment whose host
// satisfies ready (nil = any). Skipping busy hosts models the ToR polling
// whichever host has transmittable data for this circuit (§3.5) — without
// it, concurrent sessions head-of-line block on each other's hosts while
// other NICs idle. The scan is bounded to keep service near-FIFO: a run on
// a host that is not ready counts each of its segments.
func (q *segQueue) carveReady(maxBytes int64, ready func(host int32) bool) (segment, bool) {
	scanned := 0
	for i := 0; i < q.runs.Len(); i++ {
		r := q.runs.At(i)
		if r.bytes == 0 {
			continue
		}
		if ready != nil && !ready(r.host) {
			if scanned += 1 + int(r.more); scanned >= scanLimit {
				return segment{}, false
			}
			continue
		}
		out := r.segment
		out.bytes = min(r.bytes, maxBytes)
		r.bytes -= out.bytes
		q.bytes -= out.bytes
		switch {
		case r.bytes > 0:
		case r.more > 0:
			// The first segment is drained: the next one takes its place.
			r.bytes = r.unit
			r.more--
		default:
			// Close the gap from the front: the runs skipped on the way
			// here (the short side, bounded by scanLimit) move back one.
			for ; i > 0; i-- {
				*q.runs.At(i) = *q.runs.At(i - 1)
			}
			q.runs.PopFront()
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

// Attach installs RotorLB on the network: it claims bulk deliveries, bulk
// NACKs and bulk NIC drops on every host, and a slice listener opens the
// transmission sessions.
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
		// traffic monopolized the link) never left the host: give the
		// bytes back instead of losing them.
		h.NIC().SetBulkDropHandler(func(p *sim.Packet) { lb.giveBack(h, p, p.DstRack, p.Hops) })
	}
	net.OnSlice(lb.onSlice)
	return lb
}

// StartFlow admits a bulk flow at its source host's rack agent. RotorLB
// holds one reference to f from here until its last byte arrives (onBulk):
// every segment and localSender that points at f lives within that span.
func (lb *LB) StartFlow(f *sim.Flow) {
	f.Start = lb.net.Engine().Now()
	f.Ref()
	lb.agents[f.SrcRack].hold(segment{f: f, host: f.SrcHost, bytes: f.Size}, f.DstRack, false)
}

// QueuedBytes returns the bulk backlog across all racks: own and relayed
// queues, the bytes open sessions hold admitted for VLB and the rack-local
// bytes localSenders have yet to send.
func (lb *LB) QueuedBytes() int64 {
	var total int64
	for _, a := range lb.agents {
		total += a.vlbHeld + a.localHeld
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
		lb.net.Metrics().RecordDelivery(f, int(p.PayloadSize), int(p.Hops), lb.net.Engine().Now())
		if f.Done {
			// The last byte: a bulk packet is delivered or NACKed, never
			// both, so no byte of f is left anywhere in RotorLB.
			f.Unref()
		}
		p.Release()
		return
	}
	// VLB storage at the relay rack.
	lb.agents[h.Rack].hold(segment{f: f, host: h.ID, bytes: int64(p.PayloadSize), hops: p.Hops}, p.DstRack, false)
	p.Release()
}

// onNack gives back bytes reported lost by a ToR (§4.2.2). The NACK
// arrives at the host that transmitted the failed packet.
func (lb *LB) onNack(h *sim.Host, p *sim.Packet) {
	lb.NACKs++
	p.Flow.Retransmits++
	// OrigHops includes the uplink the packet was enqueued on but never
	// crossed; give back with one hop less.
	lb.giveBack(h, p, p.FailedDstRack, max(p.OrigHops-1, 0))
}

// giveBack puts the bytes of bulk packet p, which host h sent and which did
// not get out, back at the head of their queue, bound for rack dst at hops
// ToR-to-ToR hops. A failed VLB first leg reverts to the origin queue with
// its hops reset: the direct path or a later offer will carry it.
func (lb *LB) giveBack(h *sim.Host, p *sim.Packet, dst int32, hops int8) {
	if p.RelayRack >= 0 {
		hops = 0
	}
	lb.agents[h.Rack].hold(segment{f: p.Flow, host: h.ID, bytes: int64(p.PayloadSize), hops: hops}, dst, true)
	p.Release()
}
