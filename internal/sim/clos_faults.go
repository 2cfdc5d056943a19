package sim

import "github.com/opera-net/opera/internal/graph"

// This file is the folded Clos's share of the fault mechanism
// (faultapi.go). Cables live on two tiers — ClosTierToR (ToR→agg uplinks,
// Switch = ToR index) and ClosTierAgg (agg→core uplinks, Switch = agg
// index) — and switch targets address aggregation (ClosTierAgg) and core
// (ClosTierCore) switches; ToRs use ToRTarget like every other fabric.
// Tier-0 link coordinates alias ClosTierToR so flat schedules
// (FlatLink(rack, up)) run unchanged on the Clos.
//
// The failure model matches the expander's: a static packet fabric where
// link-state knowledge is instant. ECMP spraying is failure-aware at
// each hop's local ports — a ToR sprays only over live uplinks, an agg
// only over live core uplinks — and the deterministic downward path
// drops packets at a dead hop (counted in Faults.Lost; NDP's trim/RTO
// machinery retransmits). When an element fails, every queue draining
// into it is emptied with failed-cable semantics through Port.DropAll: a
// cable cut drains its two directional ports, a ToR or switch failure
// drains both ports of every cable touching it. Recoveries are pure
// state flips.

// faultMap is the Clos's coordinate map over the wiring g
// (topology.FoldedClos.RackGraph), whose node numbering is the fault
// table's. Each cable is named from its lower end, by that switch's tier
// and its uplink index.
func (n *ClosNet) faultMap(g [][]int32) faultMap {
	topo := n.topo
	half := topo.K / 2
	cables := make([]cable, 0, topo.NumToRs*topo.UplinksPerToR+topo.NumAgg*half)
	graph.Edges(g, func(v, k, w, rev int) {
		tier, i := n.tier(v)
		lo, hi := n.sw[v], n.sw[w]
		cables = append(cables, cable{id: Target{Kind: TargetLink, Tier: tier, Switch: i, Port: k - lo.down},
			ends:  [2]int32{int32(v), int32(w)},
			ports: [2]*Port{lo.ports[k], hi.ports[rev]}})
	})
	return faultMap{
		fabric: n.kind,
		tors:   topo.NumToRs,
		links: []linkPlane{
			{tier: ClosTierToR, flat: true, n: topo.NumToRs, ports: topo.UplinksPerToR, swName: "ToR", portName: "ToR uplink"},
			{tier: ClosTierAgg, n: topo.NumAgg, ports: half, swName: "agg", portName: "agg uplink"},
		},
		switches: []switchPlane{
			{tier: ClosTierAgg, n: topo.NumAgg, name: "agg"},
			{tier: ClosTierCore, n: topo.NumCore, name: "core"},
		},
		cables: cables,
		react: func(_ Target, cables []int32, down bool) {
			if down {
				n.faults.dropQueued(cables)
			}
		},
	}
}
