package sim

// This file is RotorNet's share of the fault mechanism (faultapi.go). The
// failure-information model is simpler than Opera's epidemic: RotorNet
// assumes an out-of-band management channel to keep its rotors
// slot-synchronized (this simulator models that channel explicitly — the
// 2 µs path RotorLB NACKs ride in the non-hybrid variant), and failure
// news is assumed to travel it too. Knowledge is therefore global and
// immediate: from the failure instant every ToR routes around dead
// circuits. Concretely, when a rack↔rotor-switch cable fails:
//
//   - ToRs stop selecting the dead circuit (DirectSwitch hits are vetoed,
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
// (the +33%-cost addition of §5.1) and is not modelled as failing with
// the rotor side. Switch failures take a whole rotor switch — one uplink
// per ToR — out of rotation.
//
// One RotorLB model gap is surfaced rather than fixed: VLB bytes parked
// at a relay whose second leg then dies are not re-offloaded to a third
// rack — they wait at the relay until the destination becomes directly
// reachable again. Faults.StrandedBytes (wired by Cluster.Faults) reports
// them.

// Faults returns the network's fault injector, creating it lazily. The
// coordinate map is Opera's — flat {rack, rotor switch}, gray impairments
// on the rack's uplink port — with the switch in [0, NumSwitches): the
// hybrid variant's packet uplink is not a fault coordinate. There is no
// reaction rule: knowledge is instant, so a state flip is complete once
// the usable table, which routing reads live, is updated.
func (n *RotorNetSim) Faults() *Faults {
	if n.faults == nil {
		racks, sws := n.topo.NumRacks, n.topo.NumSwitches
		n.faults = newFaults(n.eng, n.faultSeed, faultMap{
			fabric:   n.Kind(),
			tors:     racks,
			links:    []linkPlane{{n: racks, ports: sws, swName: "rack", portName: "rotor switch"}},
			switches: []switchPlane{{n: sws, name: "rotor switch"}},
			cables: rotorCables(racks, sws, func(rack, sw int) *Port {
				return n.tors[rack].up[sw]
			}),
		})
	}
	return n.faults
}
