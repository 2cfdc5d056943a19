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

	voq   []segQueue // own traffic, by final destination rack
	relay []segQueue // stored VLB traffic, by final destination rack

	relayTotal int64

	// vlbHeld is the bytes admitted into this rack's open sessions' VLB
	// queues and not yet sent or returned: they have left voq but not the
	// rack, so they still count as backlog.
	vlbHeld int64

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

	// SentDirect/SentRelay/SentVLB count bytes launched per path type.
	SentDirect, SentRelay, SentVLB uint64
}

func newRackAgent(lb *LB, rack int) *rackAgent {
	n := lb.net.NumRacks()
	hosts := lb.net.HostsPerRack()
	return &rackAgent{
		lb:        lb,
		rack:      rack,
		voq:       make([]segQueue, n),
		relay:     make([]segQueue, n),
		firstHost: int32(rack * hosts),
		nicFree:   make([]eventsim.Time, hosts),
		vlbBudget: make([]int64, hosts),
	}
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

// QueuedFor returns (own, relayed) bytes queued toward dst.
func (a *rackAgent) QueuedFor(dst int) (own, relayed int64) {
	return a.voq[dst].bytes, a.relay[dst].bytes
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
		spare := windowBytes - a.relay[c.Peer].bytes - a.voq[c.Peer].bytes
		if spare > int64(net.Config().MTU) {
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
		if dst == peer || dst == a.rack {
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

// sendLocal transmits a rack-local bulk flow straight through the ToR,
// self-paced at the NIC rate. The pacer is one localSender allocated per
// local flow; its per-packet rescheduling uses the pooled closure-free
// engine path.
func (a *rackAgent) sendLocal(f *sim.Flow) {
	(&localSender{a: a, f: f}).OnEvent(nil)
}

// localSender paces one rack-local flow, one MTU per serialization time.
type localSender struct {
	a    *rackAgent
	f    *sim.Flow
	sent int64
}

// OnEvent implements eventsim.Handler: emit the next chunk and reschedule.
func (s *localSender) OnEvent(any) {
	if s.sent >= s.f.Size {
		return
	}
	net := s.a.lb.net
	cfg := net.Config()
	n := int64(cfg.MTU)
	if s.f.Size-s.sent < n {
		n = s.f.Size - s.sent
	}
	p := s.a.newBulkPacket(segment{f: s.f, host: s.f.SrcHost, bytes: n}, -1)
	net.Hosts()[s.f.SrcHost].Send(p)
	s.sent += n
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
	relay, voq := &a.relay[s.circuit.Peer], &a.voq[s.circuit.Peer]
	if relay.bytes == 0 && voq.bytes == 0 && s.vlbQ.bytes == 0 {
		// Nothing to send: poll for new arrivals.
		lb.park(s, now+10*txTime)
		return
	}
	mtu := int64(net.Config().MTU)
	relayLeg := false
	vlb := false
	ready := func(h int32) bool { return a.hostReady(h, now, txTime) }
	// Service order: stored relay, own direct, admitted VLB — carving from
	// the first segment whose host can transmit (the ToR polls whichever
	// host has data for this circuit, §3.5).
	seg, ok := relay.carveReady(mtu, ready)
	if ok {
		relayLeg = true
		a.relayTotal -= seg.bytes
	}
	if !ok {
		seg, ok = voq.carveReady(mtu, ready)
	}
	if !ok {
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
	switch {
	case relayLeg:
		a.SentRelay += uint64(seg.bytes)
	case vlb:
		a.SentVLB += uint64(seg.bytes)
	default:
		a.SentDirect += uint64(seg.bytes)
	}
	// Poll the owning host: it enqueues on its NIC now; priority queueing
	// there lets low-latency traffic jump ahead (§4.2).
	net.Hosts()[seg.host].Send(p)
	// ContinueCall: per-packet pump rescheduling reuses the firing event
	// (or the pooled path when the host's NIC claimed it first).
	net.Engine().ContinueCall(txTime, s, nil)
}

// close returns any admitted-but-unsent VLB bytes to their origin queues;
// they never left their hosts, so they simply wait for a later circuit.
// The session's chain of events ends here — nothing scheduled refers to it
// any more — so this is also where it goes back to the pool.
func (s *session) close() {
	a := s.agent
	for {
		seg, ok := s.vlbQ.carve(1 << 62)
		if !ok {
			break
		}
		a.vlbHeld -= seg.bytes
		seg.hops = 0
		a.voq[seg.f.DstRack].pushFront(seg)
	}
	a.lb.sessions.Put(s)
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
	p.RelayRack = relayRack
	p.Hops = seg.hops
	return p
}
