package sim

import (
	"github.com/opera-net/opera/internal/routing"
)

// This file is Opera's share of the fault mechanism (faultapi.go):
// §3.6.2's failure handling as the reaction rule (the coordinate map is
// the rotor fabric's).
//
//   - Links, ToRs and circuit switches can fail at any simulated time.
//   - The ToRs adjacent to a failure detect it through the hello exchange
//     at the start of the next matching (modelled as immediate detection —
//     within one slice — at the endpoints).
//   - Failure information spreads epidemically: each time a new circuit is
//     configured, the ToRs at its two ends exchange hello messages carrying
//     any failure news. Because all ToR pairs connect every cycle, every
//     surviving ToR learns of a failure within at most two cycles (§3.6.2:
//     1–10 ms).
//   - A ToR that has learned of the failures recomputes its routing tables
//     against the surviving topology; until then it may forward into dead
//     circuits, where packets are lost (bulk takes the NACK path, NDP
//     recovers low-latency traffic via retransmission timeouts).
//
// The post-failure tables are what distributed recomputation converges
// to; each ToR simply switches to them when the epidemic reaches it. They
// are one routing.Tables built a slice at a time, on the first lookup an
// informed ToR makes into that slice: a failure event starts a new epoch
// by forgetting the built slices, and a short epoch (one flap transition)
// pays for the two or three slices it lives through instead of a whole
// cycle's. Recoveries spread the same way: distant ToRs keep routing
// around a restored link until the good news reaches them.

// helloEpidemic tracks what each ToR knows about the current failure set.
type helloEpidemic struct {
	net *OperaNet

	// informed marks ToRs that have learned of the latest failure set and
	// therefore use the recovery tables.
	informed []bool
	// epoch counts failure events.
	epoch int

	// recovery routes the surviving topology of the current epoch, nil
	// until the first failure event. Its slices are derived from the live
	// fault table when first looked up — sound because the table cannot
	// change inside an epoch: every change starts a new one.
	recovery *routing.Tables
}

// react is Opera's reaction rule: who detects the change first, carrying
// §3.6.2's detection semantics for each coordinate kind.
func (ep *helloEpidemic) react(t Target, _ []int32, down bool) {
	topo := ep.net.sched
	var detectors []int
	switch t.Kind {
	case TargetLink:
		detectors = []int{t.Switch}
	case TargetToR:
		// The racks currently circuit-connected to it notice at their next
		// hello; on recovery the rack itself also knows.
		rack := t.ID
		sc := int(ep.net.curSlice % int64(topo.SlicesPerCycle()))
		if !down {
			detectors = append(detectors, rack)
		}
		for sw := 0; sw < topo.Uplinks(); sw++ {
			if p := topo.SwitchMatching(sw, sc).Peer(rack); p != rack {
				detectors = append(detectors, p)
			}
		}
	case TargetSwitch:
		// Every ToR detects on its own uplink (signal loss, §3.5).
		detectors = make([]int, topo.NumRacks())
		for i := range detectors {
			detectors[i] = i
		}
	}
	ep.onFailure(detectors)
}

// onFailure starts a new epoch: forget the recovery tables built against
// the previous failure set and seed the epidemic with the detecting ToRs.
func (ep *helloEpidemic) onFailure(detectors []int) {
	ep.epoch++
	for i := range ep.informed {
		ep.informed[i] = false
	}
	for _, d := range detectors {
		if !ep.net.faults.nodeDown[d] {
			ep.informed[d] = true
		}
	}
	if ep.recovery == nil {
		ep.recovery = ep.net.tables.Lazy(ep.survivingPortMap)
	}
	ep.recovery.Invalidate()
}

// survivingPortMap derives one slice's port map of the surviving
// topology: a circuit is usable when the cables at both its ends are.
func (ep *helloEpidemic) survivingPortMap(slice int, pm routing.PortMap) {
	fs := ep.net.faults
	ep.net.sched.SlicePeers(slice, pm)
	for rack, row := range pm {
		for sw, peer := range row {
			if peer >= 0 && !(fs.LinkUp(rack, sw) && fs.LinkUp(int(peer), sw)) {
				row[sw] = -1
			}
		}
	}
}

// spread runs the hello-protocol epidemic for one slice boundary: the two
// ends of every newly configured circuit exchange failure news (§3.6.2).
func (ep *helloEpidemic) spread(sliceInCycle int) {
	if ep.epoch == 0 {
		return
	}
	fs := ep.net.faults
	topo := ep.net.sched
	for sw := 0; sw < topo.Uplinks(); sw++ {
		if fs.nodeDown[topo.NumRacks()+sw] {
			continue
		}
		m := topo.SwitchMatching(sw, sliceInCycle)
		for a := 0; a < topo.NumRacks(); a++ {
			b := m.Peer(a)
			if b <= a {
				continue
			}
			if !fs.LinkUp(a, sw) || !fs.LinkUp(b, sw) {
				continue
			}
			if ep.informed[a] || ep.informed[b] {
				ep.informed[a] = true
				ep.informed[b] = true
			}
		}
	}
}

// InformedCount returns how many surviving ToRs have learned the current
// failure set; with no fault ever injected every ToR survives and there is
// nothing to learn.
func (n *OperaNet) InformedCount() (informed, survivors int) {
	for r, knows := range n.epidemic.informed {
		if n.faults.nodeDown[r] {
			continue
		}
		survivors++
		if knows {
			informed++
		}
	}
	return informed, survivors
}

// tablesFor returns the routing tables ToR rack should use: the recovery
// tables once informed, the original ones otherwise.
func (ep *helloEpidemic) tablesFor(rack int) *routing.Tables {
	if ep.recovery != nil && ep.informed[rack] {
		return ep.recovery
	}
	return ep.net.tables
}
