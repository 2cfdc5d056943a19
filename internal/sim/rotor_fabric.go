package sim

import (
	"fmt"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/topology"
)

// rotorFabric is the circuit plane Opera and RotorNet share — the paper
// defines the one relative to the other (§3.1, Appendix B): ToRs whose
// uplinks reach rotor switches cycling through matchings on a
// topology.Schedule (staggered or in unison is the Schedule's business),
// the slice clock that darkens each switch for its reconfiguration,
// RotorLB's bulk forwarding with its §4.2.2 NACKs, and the {rack, rotor
// switch} fault coordinate map. A fabric embeds it and sets what differs:
// a packet path and a failure-knowledge rule.
type rotorFabric struct {
	edge
	sched topology.Schedule
	tors  []*RotorToR

	// forward is the packet path: how a non-bulk packet bound for another
	// rack leaves ToR t.
	forward func(t *RotorToR, p *Packet)

	// farEndKnown is the failure-knowledge rule: whether a sending ToR
	// knows the state of a circuit's far end. Opera's ToRs see only their
	// own signal loss (§3.5) and transmit into a circuit dead at the other
	// end; RotorNet's hear everything at once over the out-of-band channel
	// and NACK instead. Where news travels in-band, react is the fault
	// injector's reaction rule and spread runs at every slice boundary,
	// once the ports carry the new slice's circuits; both nil otherwise.
	farEndKnown bool
	react       func(t Target, cables []int32, down bool)
	spread      func(sliceInCycle int)

	curSlice  int64
	listeners []func(absSlice int64)
	stopped   bool

	// tick and blackout are the pre-bound slice-clock handlers
	// (eventsim.Handler), so the clock schedules without per-slice
	// closures.
	tick     sliceTick
	blackout sliceBlackout
}

// sliceTick advances the slice clock; the next slice number is always
// curSlice+1, so the event needs no argument.
type sliceTick struct{ f *rotorFabric }

func (h *sliceTick) OnEvent(any) { h.f.sliceBoundary(h.f.curSlice + 1) }

// sliceBlackout darkens, for the final ReconfDelay of the slice, every
// rotor switch that reconfigures at its end.
type sliceBlackout struct{ f *rotorFabric }

func (h *sliceBlackout) OnEvent(any) {
	f := h.f
	sc := int(f.curSlice % int64(f.sched.SlicesPerCycle()))
	for sw := 0; sw < f.sched.Uplinks(); sw++ {
		if !f.sched.IsTransitioning(sw, sc) {
			continue
		}
		for _, tor := range f.tors {
			tor.up[sw].SetEnabled(false)
			tor.up[sw].FlushForReconfig(tor.requeue)
		}
	}
}

// assemble wires hosts, ToRs and their ports over the schedule, and the
// fault table over the ports.
func (f *rotorFabric) assemble(eng *eventsim.Engine, cfg Config, kind string, sched topology.Schedule, faultSeed int64) {
	f.edge = newEdge(eng, cfg, kind, sched.NumRacks(), sched.HostsPerRack())
	f.sched = sched
	f.tick.f, f.blackout.f = f, f
	f.tors = make([]*RotorToR, f.racks)
	for r := range f.tors {
		f.tors[r] = &RotorToR{fab: f, rack: int32(r)}
	}
	f.wireHosts(func(rack int) Node { return f.tors[rack] })
	for _, t := range f.tors {
		t.wire()
	}
	f.faults = newFaults(eng, faultSeed, f.faultMap())
}

// Start begins the slice clock; call once before running the engine.
func (f *rotorFabric) Start() { f.sliceBoundary(0) }

// Stop halts the slice clock after the current slice, so a finished
// simulation can drain.
func (f *rotorFabric) Stop() { f.stopped = true }

// ToR returns the ToR switch of the given rack.
func (f *rotorFabric) ToR(rack int) *RotorToR { return f.tors[rack] }

// CurrentSlice returns the absolute slice number.
func (f *rotorFabric) CurrentSlice() int64 { return f.curSlice }

// OnSlice implements CircuitNetwork: fn runs at every slice boundary,
// after port state has been updated for the new slice.
func (f *rotorFabric) OnSlice(fn func(absSlice int64)) {
	f.listeners = append(f.listeners, fn)
}

// SliceDuration implements CircuitNetwork.
func (f *rotorFabric) SliceDuration() eventsim.Time { return f.sched.SliceDuration() }

// PairWindowsPerCycle implements CircuitNetwork.
func (f *rotorFabric) PairWindowsPerCycle() int { return f.sched.PairWindowsPerCycle() }

// circuitUp reports whether the circuit rack has to peer through switch sw
// works end to end: either end's cable, the switch, or the peer ToR may
// have failed.
func (f *rotorFabric) circuitUp(rack, peer, sw int) bool {
	return f.faults.LinkUp(rack, sw) && f.faults.LinkUp(peer, sw)
}

// ActiveCircuits implements CircuitNetwork: every installed matching's peer
// (self-loops excluded), with the bulk admission window of §3.5/§4.1 —
// from the guard band after a switch's reconfiguration to the guard band
// before its next blackout, whole slices in between. Dead circuits are
// excluded: RotorLB plans on what the rack's ToR has learned, its own
// signal loss at once and the rest through hellos or the OOB channel.
func (f *rotorFabric) ActiveCircuits(absSlice int64, rack int, buf []Circuit) []Circuit {
	sc := int(absSlice % int64(f.sched.SlicesPerCycle()))
	for sw := 0; sw < f.sched.Uplinks(); sw++ {
		peer := f.sched.SwitchMatching(sw, sc).Peer(rack)
		if peer == rack || !f.circuitUp(rack, peer, sw) {
			continue
		}
		start, end := f.sched.BulkWindow(sw, sc)
		if end <= start {
			continue
		}
		buf = append(buf, Circuit{Switch: sw, Peer: peer, WindowStart: start, WindowEnd: end})
	}
	return buf
}

// sliceBoundary runs at the start of absolute slice S.
func (f *rotorFabric) sliceBoundary(S int64) {
	f.curSlice = S
	slices := f.sched.SlicesPerCycle()
	sc := int(S % int64(slices))
	// Switches that reconfigured at this boundary come back up with their
	// new matchings.
	if S > 0 {
		prev := (sc - 1 + slices) % slices
		for sw := 0; sw < f.sched.Uplinks(); sw++ {
			if !f.sched.IsTransitioning(sw, prev) {
				continue
			}
			for _, tor := range f.tors {
				// Bulk that straggled in during the blackout was admitted
				// against the old circuit: NACK it rather than deliver it
				// to the wrong rack.
				tor.up[sw].FlushForReconfig(tor.requeue)
				tor.up[sw].SetEnabled(true)
			}
		}
	}
	// Switches transitioning during this slice go dark for its final r:
	// one event for all of them.
	dur := f.sched.SliceDuration()
	for sw := 0; sw < f.sched.Uplinks(); sw++ {
		if f.sched.IsTransitioning(sw, sc) {
			f.eng.AfterCall(dur-f.sched.ReconfDelay(), &f.blackout, nil)
			break
		}
	}
	if f.spread != nil {
		f.spread(sc)
	}
	for _, fn := range f.listeners {
		fn(S)
	}
	if !f.stopped {
		// The slice clock rides one Event for the whole run (unless a port
		// kicked inside this tick claimed the firing object first).
		f.eng.ContinueCall(dur, &f.tick, nil)
	}
}

// faultMap is the rotor fabrics' coordinate map, flat {rack, rotor switch}:
// tier-0 links name rack uplinks, tier-0 switch targets name rotor switches
// (hybrid RotorNet's packet uplink is not a fault coordinate), and gray
// impairments apply to the named rack's uplink port. Each cable carries
// only that rack-side port: the far end is an optical switch.
func (f *rotorFabric) faultMap() faultMap {
	racks, sws := f.racks, f.sched.Uplinks()
	cables := make([]cable, 0, racks*sws)
	for rack := 0; rack < racks; rack++ {
		for sw := 0; sw < sws; sw++ {
			cables = append(cables, cable{id: FlatLink(rack, sw),
				ends:  [2]int32{int32(rack), int32(racks + sw)},
				ports: [2]*Port{f.tors[rack].up[sw]}})
		}
	}
	return faultMap{
		fabric:   f.kind,
		tors:     racks,
		links:    []linkPlane{{n: racks, ports: sws, swName: "rack", portName: "rotor switch"}},
		switches: []switchPlane{{n: sws, name: "rotor switch"}},
		cables:   cables,
		react:    f.react,
	}
}

// RotorToR is a top-of-rack switch on a rotor fabric. Bulk packets leave by
// the direct circuit of the current slice (§4.3) or are NACKed; everything
// else takes the fabric's packet path.
type RotorToR struct {
	fab     *rotorFabric
	rack    int32
	up      []*Port // one per rotor switch
	down    []*Port // one per local host
	relayRR int     // round-robin selector for VLB storage hosts

	// BulkNACKs counts §4.2.2 NACKs issued by this ToR.
	BulkNACKs uint64
}

// wire builds the ToR's ports (hosts must exist already).
func (t *RotorToR) wire() {
	f := t.fab
	rack := int(t.rack)
	t.down = f.downlinks(rack)
	for _, pt := range t.down {
		// Several circuits can converge on one downlink; overflowing bulk
		// is NACKed back to its sender like any other ToR drop (§4.2.2).
		pt.SetBulkDropHandler(t.bulkNACK)
	}
	t.up = make([]*Port, f.sched.Uplinks())
	for sw := range t.up {
		sw := sw
		// The far end is a function of (sw, slice, rack): it is looked up
		// once per slice, for [from, until), not once per packet. Faults
		// move mid-slice, so circuitUp stays per packet.
		peer := rack
		var from, until eventsim.Time
		resolve := func(at eventsim.Time) Node {
			if at < from || at >= until {
				sc, _, offset := f.sched.SliceAt(at)
				peer = f.sched.SwitchMatching(sw, sc).Peer(rack)
				from = at - offset
				until = from + f.sched.SliceDuration()
			}
			if peer == rack {
				return nil // self-loop: dark port this configuration
			}
			if !f.circuitUp(rack, peer, sw) {
				f.faults.Lost++
				return nil // failed cable, switch, or peer ToR: the photons are lost
			}
			return f.tors[peer]
		}
		t.up[sw] = NewDynamicPort(f.eng, f.cfg, fmt.Sprintf("tor%d-up%d", rack, sw), resolve)
		t.up[sw].SetBulkDropHandler(t.bulkNACK)
	}
}

// Uplink returns the port to the given rotor switch.
func (t *RotorToR) Uplink(sw int) *Port { return t.up[sw] }

// Receive implements Node.
func (t *RotorToR) Receive(p *Packet, _ *Port) {
	switch {
	case p.Kind == KindBulk:
		t.receiveBulk(p)
	case p.DstRack == t.rack:
		deliverLocal(t.down, t.rack, p)
	default:
		t.fab.forward(t, p)
	}
}

// receiveBulk forwards a RotorLB packet: down if local or at its relay
// rack, else out the direct circuit of the current slice; mistimed packets
// are NACKed back to their sender (§4.2.2).
func (t *RotorToR) receiveBulk(p *Packet) {
	if p.RelayRack == t.rack {
		// VLB first leg complete: hand to a local host for storage.
		t.down[t.relayRR%len(t.down)].Enqueue(p)
		t.relayRR++
		return
	}
	if p.DstRack == t.rack {
		deliverLocal(t.down, t.rack, p)
		return
	}
	f := t.fab
	target := int(p.DstRack)
	if p.RelayRack >= 0 {
		target = int(p.RelayRack)
	}
	sc, _, _ := f.sched.SliceAt(f.eng.Now())
	// Transitioning switches remain usable until their blackout; the port's
	// disable/flush enforces the actual deadline (§4.2.2).
	sw := f.sched.DirectSwitchInstalled(sc, int(t.rack), target)
	if sw < 0 {
		t.bulkNACK(p)
		return
	}
	// A ToR knows its own links' state immediately (signal loss, §3.5);
	// the far end's only under farEndKnown.
	if fs := f.faults; !fs.LinkUp(int(t.rack), sw) || f.farEndKnown && !fs.LinkUp(target, sw) {
		t.bulkNACK(p)
		return
	}
	p.Hops++
	t.up[sw].Enqueue(p)
}

// bulkNACK converts a failed bulk packet into a §4.2.2 NACK routed back to
// the sending host so it can requeue the bytes.
func (t *RotorToR) bulkNACK(p *Packet) {
	t.BulkNACKs++
	nack := NewPacket()
	nack.Kind = KindBulkNack
	nack.Class = ClassControl
	nack.Size = int32(t.fab.cfg.HeaderBytes)
	nack.SrcHost = p.DstHost // nominal; unused on arrival
	nack.SrcRack = p.DstRack
	nack.DstHost = p.SrcHost
	nack.DstRack = p.SrcRack
	nack.Flow = p.Flow
	nack.Seq = p.Seq
	nack.PayloadSize = p.PayloadSize
	nack.PullNo = p.DstRack      // final destination rack, for requeueing
	nack.RelayRack = p.RelayRack // ≥0 ⇒ the failed send was a VLB first leg
	nack.OrigHops = p.Hops
	p.Release()
	t.Receive(nack, nil) // routes like control traffic
}

// requeue re-injects a packet flushed from a reconfiguring port.
func (t *RotorToR) requeue(p *Packet) {
	p.SliceTag = -1
	t.Receive(p, nil)
}
