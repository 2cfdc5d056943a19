package rotorlb

import (
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
)

// rackAgent coordinates the bulk traffic of one rack: it owns the rack's
// virtual output queues, negotiates VLB offers with peer racks, and paces
// polled host transmissions into each circuit's window (§3.5: "end hosts
// transmit when polled by their attached ToR").
type rackAgent struct {
	lb   *LB
	rack int

	// voq holds own traffic and relay stored VLB traffic, by final
	// destination rack. Both stay nil, read as all empty, until hold
	// first puts bytes in them: a rack that never sources, relays or gets
	// back a bulk byte for another rack, as in a latency-only run, holds
	// no queue.
	voq   []segQueue
	relay []segQueue

	relayTotal int64

	// vlbHeld is the bytes admitted into this rack's open sessions' VLB
	// queues and not yet sent or returned: they have left voq but not the
	// rack, so they still count as backlog.
	vlbHeld int64

	// localHeld is the rack's own bytes that localSenders have yet to
	// hand to a NIC.
	localHeld int64

	// firstHost is the ID of the rack's first host; nicFree and vlbBudget
	// are indexed by host ID minus firstHost.
	firstHost int32

	// nicFree models when each local host's NIC drains its granted bulk,
	// so concurrent circuit sessions do not over-commit one host's uplink
	// (the ToR "polls" only hosts that can actually transmit, §3.5).
	nicFree []eventsim.Time

	// vlbBudget caps, per slice, how many VLB bytes may be carved from
	// each host — a host can physically transmit only one window's worth,
	// so offering more would strand carved bytes until the window closes.
	vlbBudget []int64
}

func newRackAgent(lb *LB, rack int) *rackAgent {
	hosts := lb.net.HostsPerRack()
	return &rackAgent{
		lb:        lb,
		rack:      rack,
		firstHost: int32(rack * hosts),
		nicFree:   make([]eventsim.Time, hosts),
		vlbBudget: make([]int64, hosts),
	}
}

// queues allocates the rack's VOQs and relay queues, one backing array for
// both, the first time it is called. Only hold calls it.
func (a *rackAgent) queues() {
	if a.voq == nil {
		n := a.lb.net.NumRacks()
		qs := make([]segQueue, 2*n)
		a.voq, a.relay = qs[:n:n], qs[n:]
	}
}

// queuedFor returns the bytes the rack holds for peer in its relay queue
// and VOQ.
func (a *rackAgent) queuedFor(peer int) int64 {
	if a.voq == nil {
		return 0
	}
	return a.relay[peer].bytes + a.voq[peer].bytes
}

// hostReady reports whether host h's NIC backlog is shallow enough to grant
// another packet without risking queue overflow.
func (a *rackAgent) hostReady(h int32, now, txTime eventsim.Time) bool {
	return a.nicFree[h-a.firstHost] <= now+4*txTime
}

// grantTo accounts one packet of granted NIC time at host h.
func (a *rackAgent) grantTo(h int32, now, txTime eventsim.Time) {
	t := a.nicFree[h-a.firstHost]
	if t < now {
		t = now
	}
	a.nicFree[h-a.firstHost] = t + txTime
}

// openSessions starts one paced transmission session per active circuit at
// a slice boundary, after the offer/accept exchange for VLB admission.
func (a *rackAgent) openSessions(abs int64) {
	lb := a.lb
	net := lb.net
	lb.circuits = net.ActiveCircuits(abs, a.rack, lb.circuits[:0])
	now := net.Engine().Now()
	sliceBytes := int64(net.Config().BytesIn(net.SliceDuration()))
	for i := range a.vlbBudget {
		a.vlbBudget[i] = sliceBytes
	}
	// VLB offers only ever come out of the rack's own VOQs: with all of
	// them empty, negotiating would walk every VOQ per circuit and move
	// nothing.
	backlog := false
	for i := range a.voq {
		if a.voq[i].bytes != 0 {
			backlog = true
			break
		}
	}
	for _, c := range lb.circuits {
		sess := lb.sessions.Get()
		if sess == nil {
			sess = new(session)
		}
		sess.agent, sess.circuit, sess.deadline = a, c, now+c.WindowEnd
		windowBytes := int64(net.Config().BytesIn(c.WindowEnd - c.WindowStart))
		// VLB offer/accept (§3.4, RotorLB phase 3): if this circuit's
		// direct demand leaves spare capacity and other queues are skewed,
		// ask the peer to relay. The exchange is modelled as in-band
		// control at slice start with negligible size.
		spare := windowBytes - a.queuedFor(c.Peer)
		if backlog && spare > int64(net.Config().MTU) {
			a.negotiateVLB(c.Peer, spare, &sess.vlbQ)
		}
		lb.park(sess, now+c.WindowStart+startMargin)
	}
}

// negotiateVLB proposes two-hop traffic to the peer rack and moves accepted
// bytes into the session's VLB queue.
func (a *rackAgent) negotiateVLB(peer int, spare int64, vlbQ *segQueue) {
	peerAgent := a.lb.agents[peer]
	net := a.lb.net
	for dst := range a.voq {
		if spare <= 0 {
			return
		}
		if dst == peer {
			continue
		}
		q := &a.voq[dst]
		if q.bytes == 0 {
			continue // nothing to offload; most VOQs, so skip the reachability walk
		}
		threshold := a.lb.vlbThreshold
		if !net.DirectReachable(a.rack, dst) {
			// Failures severed this pair's direct matching: no direct
			// window will ever drain the queue, so offload all of it
			// (§3.6.2 rerouting) — provided the relay can deliver.
			threshold = 0
		}
		if q.bytes <= threshold {
			continue // not skewed enough to pay the 2-hop tax
		}
		if !net.DirectReachable(peer, dst) {
			continue // the relay itself could never deliver: decline
		}
		// Offer the excess over what the direct circuit will drain.
		offer := q.bytes - threshold
		if offer > spare {
			offer = spare
		}
		granted := peerAgent.acceptVLB(offer)
		for granted > 0 {
			h, nonEmpty := q.peekHost()
			if !nonEmpty {
				break
			}
			budget := a.vlbBudget[h-a.firstHost]
			if budget <= 0 {
				break // this host cannot physically send more this slice
			}
			limit := granted
			if budget < limit {
				limit = budget
			}
			seg, ok := q.carve(limit)
			if !ok {
				break
			}
			vlbQ.push(seg)
			a.vlbHeld += seg.bytes
			a.vlbBudget[h-a.firstHost] -= seg.bytes
			granted -= seg.bytes
			spare -= seg.bytes
		}
	}
}

// acceptVLB grants relay admission bounded by this rack's relay buffer.
func (a *rackAgent) acceptVLB(offer int64) int64 {
	space := relayBufferBytes - a.relayTotal
	if space <= 0 {
		return 0
	}
	if offer > space {
		offer = space
	}
	return offer
}

// localSender paces rack-local bytes straight through the ToR, self-paced
// at the NIC rate: one MTU per serialization time until none are left.
type localSender struct {
	a    *rackAgent
	f    *sim.Flow
	left int64
}

// OnEvent implements eventsim.Handler: emit the next chunk and reschedule.
func (s *localSender) OnEvent(any) {
	if s.left <= 0 {
		return
	}
	net := s.a.lb.net
	cfg := net.Config()
	n := min(int64(cfg.MTU), s.left)
	s.left -= n
	s.a.localHeld -= n
	net.Hosts()[s.f.SrcHost].Send(s.a.newBulkPacket(segment{f: s.f, host: s.f.SrcHost, bytes: n}, -1))
	// ContinueCall: the pump rides its own just-fired event to the next chunk.
	net.Engine().ContinueCall(cfg.SerializationDelay(int(n)), s, nil)
}

// session paces one circuit's transmissions across its window. With
// nothing to send it waits parked on a poll batch shared with every other
// idle session (LB.park); while it has bytes it is its own
// eventsim.Handler, so the one-event-per-packet pump loop schedules
// without closures. Sessions are recycled through LB.sessions: close()
// releases one, and its emptied vlbQ keeps its ring for the next window.
type session struct {
	agent    *rackAgent
	circuit  sim.Circuit
	deadline eventsim.Time
	vlbQ     segQueue
}

// OnEvent implements eventsim.Handler.
func (s *session) OnEvent(any) { s.pump() }

// pump emits one MTU-sized bulk packet per MTU serialization time until
// the window closes, polling every 10 of them while all eligible queues
// are empty. Service order follows RotorLB: stored relay traffic, then own
// direct, then admitted VLB.
func (s *session) pump() {
	a := s.agent
	lb := a.lb
	net := lb.net
	now := net.Engine().Now()
	txTime := lb.txTime
	if now+lb.closeMargin > s.deadline {
		s.close()
		return
	}
	if a.queuedFor(s.circuit.Peer) == 0 && s.vlbQ.bytes == 0 {
		// Nothing to send: poll for new arrivals.
		lb.park(s, now+10*txTime)
		return
	}
	// The rack has queues: its own bytes are queued, or vlbQ holds bytes
	// carved from its VOQs.
	relay, voq := &a.relay[s.circuit.Peer], &a.voq[s.circuit.Peer]
	mtu := int64(net.Config().MTU)
	vlb := false
	ready := func(h int32) bool { return a.hostReady(h, now, txTime) }
	// Service order: stored relay, own direct, admitted VLB — carving from
	// the first segment whose host can transmit (the ToR polls whichever
	// host has data for this circuit, §3.5).
	seg, ok := relay.carveReady(mtu, ready)
	if ok {
		a.relayTotal -= seg.bytes
	} else if seg, ok = voq.carveReady(mtu, ready); !ok {
		if seg, ok = s.vlbQ.carveReady(mtu, ready); ok {
			vlb = true
			a.vlbHeld -= seg.bytes
		}
	}
	if !ok {
		// Nothing grantable: the queued bytes sit behind busy NICs. Retry
		// soon.
		net.Engine().ContinueCall(txTime, s, nil)
		return
	}
	a.grantTo(seg.host, now, txTime)

	relayRack := int32(-1)
	if vlb {
		relayRack = int32(s.circuit.Peer)
	}
	p := a.newBulkPacket(seg, relayRack)
	// Poll the owning host: it enqueues on its NIC now; priority queueing
	// there lets low-latency traffic jump ahead (§4.2).
	net.Hosts()[seg.host].Send(p)
	// ContinueCall: per-packet pump rescheduling reuses the firing event
	// (or the pooled path when the host's NIC claimed it first).
	net.Engine().ContinueCall(txTime, s, nil)
}

// close returns any admitted-but-unsent VLB bytes to the head of their
// VOQs with their hops reset: they never left their hosts, so they simply
// wait for a later circuit. The session's chain of events ends here —
// nothing scheduled refers to it any more — so this is also where it goes
// back to the pool.
func (s *session) close() {
	a := s.agent
	for {
		seg, ok := s.vlbQ.carve(1 << 62)
		if !ok {
			break
		}
		a.vlbHeld -= seg.bytes
		seg.hops = 0
		a.hold(seg, seg.f.DstRack, true)
	}
	a.lb.sessions.Put(s)
}

// hold is the one place bytes of the rack come to rest, bound for rack
// dst: at the head of their queue when front is set (they did not get
// out), else at its tail. Bytes at their flow's source host go to the VOQ;
// bytes a storage host keeps for another rack go to the relay queue. No
// circuit joins a rack to itself, so a rack's own bytes are sent through
// the ToR by a localSender instead: at once for a new flow, one txTime
// later for bytes given back, since the NIC drops a packet inside Send and
// an immediate restart would recurse.
func (a *rackAgent) hold(seg segment, dst int32, front bool) {
	if int(dst) == a.rack {
		a.localHeld += seg.bytes
		s := &localSender{a: a, f: seg.f, left: seg.bytes}
		if front {
			a.lb.net.Engine().AfterCall(a.lb.txTime, s, nil)
		} else {
			s.OnEvent(nil)
		}
		return
	}
	a.queues()
	q := &a.voq[dst]
	if seg.host != seg.f.SrcHost {
		q = &a.relay[dst]
		a.relayTotal += seg.bytes
	}
	if front {
		q.pushFront(seg)
	} else {
		q.push(seg)
	}
}

// newBulkPacket materializes a segment chunk as a wire packet.
func (a *rackAgent) newBulkPacket(seg segment, relayRack int32) *sim.Packet {
	p := sim.NewPacket()
	p.Kind = sim.KindBulk
	p.Class = sim.ClassBulk
	p.SrcHost = seg.host
	p.SrcRack = int32(a.rack)
	p.DstHost = seg.f.DstHost
	p.DstRack = seg.f.DstRack
	p.Size = int32(seg.bytes)
	p.PayloadSize = int32(seg.bytes)
	p.Flow = seg.f
	seg.f.Ref()
	p.RelayRack = relayRack
	p.Hops = seg.hops
	return p
}
