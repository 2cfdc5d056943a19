package sim

import (
	"fmt"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/topology"
)

// RotorNetSim assembles the RotorNet [34] baseline: the rotor circuit
// plane run on the unison schedule (topology.NewRotorNet: every switch in
// its own stagger group, so every switch reconfigures at every slot
// boundary), RotorLB for bulk, and, in the hybrid variant, one ToR uplink
// diverted to an always-on packet-switched fabric for low-latency traffic
// (+33% cost, §5.1). The non-hybrid variant has no packet fabric: all
// traffic must ride circuits, which is what produces its
// three-orders-of-magnitude latency penalty for short flows (Figure 7c).
//
// Control packets (RotorLB NACKs) in the non-hybrid variant travel an
// out-of-band management channel modelled as a fixed 2 µs delay; their
// volume is negligible and RotorNet assumes such a channel to keep its
// rotors slot-synchronized anyway.
//
// Failure news is assumed to travel that channel too, so the
// failure-information model is simpler than Opera's epidemic: knowledge is
// global and immediate (farEndKnown, and no reaction rule — a state flip
// is complete once the usable table, which routing reads live, is
// updated). Concretely, when a rack↔rotor-switch cable fails:
//
//   - ToRs stop selecting the dead circuit (direct-switch hits are vetoed,
//     ActiveCircuits excludes it), so RotorLB offloads stranded queues via
//     VLB relays or NACKs mistimed packets as usual (§4.2.2);
//   - packets already queued on the dead uplink are lost when their
//     transmission resolves no peer (all classes are counted in
//     Faults.Lost; bulk ones then take the NACK path, control and
//     low-latency ones rely on transport retransmission);
//   - a transmission already on the wire still delivers.
//
// ToR failures darken every rotor circuit of the rack; its hosts become
// unreachable from other racks while rack-local traffic still flows. In
// the hybrid variant the dedicated packet fabric is a separate network
// and is not modelled as failing with the rotor side. Switch failures
// take a whole rotor switch — one uplink per ToR — out of rotation.
//
// One RotorLB model gap is surfaced rather than fixed: VLB bytes parked
// at a relay whose second leg then dies are not re-offloaded to a third
// rack — they wait at the relay until the destination becomes directly
// reachable again. Faults.StrandedBytes (wired when the cluster is built)
// reports them.
type RotorNetSim struct {
	rotorFabric

	// The hybrid packet fabric: one uplink per ToR into a non-blocking
	// switch with a 10 Gb/s port back to each — an optimistic stand-in for
	// the multi-stage network the paper charges +33% cost for. Both nil in
	// the non-hybrid variant.
	fabricUp   []*Port
	fabricDown []*Port
}

// rotorOOBDeliver delivers a management-channel control packet (the
// destination rides the packet's in-flight dst field).
type rotorOOBDeliver struct{}

func (rotorOOBDeliver) OnEvent(arg any) {
	p := arg.(*Packet)
	dst := p.dst
	p.dst = nil
	dst.Receive(p, nil)
}

// buildRotorNet puts every ToR uplink on a rotor switch, bar the one the
// hybrid variant gives to its packet fabric.
func buildRotorNet(p BuildParams, hybrid bool) (Network, error) {
	if p.Uplinks < 1 {
		return nil, fmt.Errorf("topology: Uplinks must be >= 1, got %d", p.Uplinks)
	}
	switches := p.Uplinks
	if hybrid {
		if switches < 2 {
			return nil, fmt.Errorf("topology: hybrid RotorNet needs >= 2 uplinks")
		}
		switches--
	}
	topo, err := topology.NewRotorNet(topology.Config{
		NumRacks:     p.Racks,
		HostsPerRack: p.HostsPerRack,
		NumSwitches:  switches,
		Seed:         p.Seed,
	})
	if err != nil {
		return nil, err
	}
	return NewRotorNetSim(p.Engine, p.Sim, topo, hybrid, p.Seed+1), nil
}

// NewRotorNetSim wires a RotorNet fabric on a unison schedule whose
// switches are the rotor uplinks; hybrid adds the packet fabric on one
// more uplink per ToR. seed drives deterministic gray-failure draws (lossy
// links); topology and scheduling are seed-independent.
func NewRotorNetSim(eng *eventsim.Engine, cfg Config, topo *topology.Opera, hybrid bool, seed int64) *RotorNetSim {
	n := &RotorNetSim{}
	n.farEndKnown, n.forward = true, n.sendOOB
	kind := "rotornet"
	if hybrid {
		kind, n.forward = "rotornet-hybrid", n.sendHybrid
	}
	n.assemble(eng, cfg, kind, topo, seed)
	if hybrid {
		core := hybridCore{n}
		n.fabricUp = make([]*Port, n.racks)
		n.fabricDown = make([]*Port, n.racks)
		for r, tor := range n.tors {
			n.fabricUp[r] = NewPort(eng, n.cfg, fmt.Sprintf("tor%d->fabric", r), core)
			n.fabricDown[r] = NewPort(eng, n.cfg, fmt.Sprintf("fabric->tor%d", r), tor)
		}
	}
	return n
}

// PacketCapable implements Network: only the hybrid variant diverts an
// uplink to an always-on packet fabric for low-latency traffic (§5.1).
func (n *RotorNetSim) PacketCapable() bool { return n.fabricUp != nil }

// sendHybrid is the hybrid variant's packet path: the ToR's diverted uplink.
func (n *RotorNetSim) sendHybrid(t *RotorToR, p *Packet) {
	p.Hops++
	n.fabricUp[t.rack].Enqueue(p)
}

// sendOOB is the non-hybrid packet path, for NACKs only: the out-of-band
// control channel.
func (n *RotorNetSim) sendOOB(_ *RotorToR, p *Packet) {
	p.dst = n.hosts[p.DstHost]
	n.eng.AfterCall(2*eventsim.Microsecond, rotorOOBDeliver{}, p)
}

// hybridCore is the hybrid packet fabric's switch.
type hybridCore struct{ n *RotorNetSim }

// Receive implements Node.
func (c hybridCore) Receive(p *Packet, _ *Port) {
	c.n.fabricDown[p.DstRack].Enqueue(p)
}
