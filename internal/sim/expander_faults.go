package sim

import (
	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/routing"
)

// This file is the static expander's share of the fault mechanism
// (faultapi.go), so fault scenarios run on the baselines too.
//
// The failure model is simpler than Opera's §3.6.2 epidemic: a static
// fabric's ToRs sit on an always-on packet network, where link-state
// flooding converges within a handful of RTTs — far below this
// simulator's 100 µs observation granularity — so recomputation is
// modelled as instant. Concretely, when a cable fails:
//
//   - every ToR immediately routes around it (the shared shortest-path
//     tables are rebuilt against the surviving topology);
//   - packets queued on the dead cable are lost (bulk-class NDP data
//     takes the usual drop path; NDP's trimming/RTO machinery
//     retransmits what was lost);
//   - a transmission already on the wire still delivers.
//
// ToR failures are modelled as all of the ToR's fabric cables going dark:
// its hosts become unreachable from other racks while rack-local traffic
// still flows. Switch targets have no referent here — the expander has no
// fabric switches — so they return ErrUnsupportedTarget.

// faultMap is the expander's coordinate map. Tier-0 link coordinates name
// a ToR's neighbor slot: FlatLink(r, i) is the cable between rack r and
// its i-th expander neighbor. That names every cable twice, once from each
// end; the canonical name is the lower-numbered rack's, and it is one
// physical cable whichever name is used — a cut takes both directions,
// gray impairments apply to both end ports.
func (n *ExpanderNet) faultMap() faultMap {
	topo := n.topo
	var cables []cable
	graph.Edges(topo.Adj, func(r, slot, peer, rev int) {
		cables = append(cables, cable{
			id: FlatLink(r, slot), alias: FlatLink(peer, rev),
			ends:  [2]int32{int32(r), int32(peer)},
			ports: [2]*Port{n.tors[r].up[slot], n.tors[peer].up[rev]},
		})
	})
	return faultMap{
		fabric: n.kind,
		tors:   topo.NumRacks,
		links:  []linkPlane{{n: topo.NumRacks, ports: topo.Degree, swName: "rack", portName: "neighbor slot"}},
		cables: cables,
		react:  n.reconverge,
	}
}

// reconverge is the expander's reaction rule: route by the surviving
// topology from now on — instant convergence, per the model above; the one
// slice is rebuilt in place at the next lookup — and lose what was queued
// on cables that just died.
func (n *ExpanderNet) reconverge(_ Target, cables []int32, down bool) {
	if n.recovery == nil {
		n.recovery = n.tables.Lazy(n.survivingPortMap)
		n.tables = n.recovery
	}
	n.recovery.Invalidate()
	if down {
		n.faults.dropQueued(cables)
	}
}

// survivingPortMap derives the port map of the surviving topology: uplink
// k of each rack is its k-th neighbor while the cable between them is up.
func (n *ExpanderNet) survivingPortMap(_ int, pm routing.PortMap) {
	n.topo.Peers(pm)
	for r, row := range pm {
		for slot := range row {
			if !n.faults.LinkUp(r, slot) {
				row[slot] = -1
			}
		}
	}
}
