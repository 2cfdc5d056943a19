package sim

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

// faultMap is the Clos's coordinate map. The wiring arithmetic below
// relies on NewFoldedClos guaranteeing AggPerPod == UplinksPerToR (each ToR
// has exactly one cable to each agg of its pod) and NumCore ==
// AggPerPod·(K/2) (each agg position's uplinks land on a disjoint group of
// K/2 cores), so every reverse port is unique.
func (n *ClosNet) faultMap() faultMap {
	topo := n.topo
	half := topo.K / 2
	aggNode, coreNode := topo.NumToRs, topo.NumToRs+topo.NumAgg
	cables := make([]cable, 0, topo.NumToRs*topo.UplinksPerToR+topo.NumAgg*half)
	for t := 0; t < topo.NumToRs; t++ {
		for i := 0; i < topo.UplinksPerToR; i++ {
			a := topo.ToRPod(t)*topo.AggPerPod + i // the agg terminating ToR t's uplink i
			cables = append(cables, cable{id: Target{Kind: TargetLink, Tier: ClosTierToR, Switch: t, Port: i},
				ends:  [2]int32{int32(t), int32(aggNode + a)},
				ports: [2]*Port{n.tors[t].up[i], n.aggs[a].down[t%topo.ToRsPerPod]}})
		}
	}
	for a := 0; a < topo.NumAgg; a++ {
		for j := 0; j < half; j++ {
			c := (a%topo.AggPerPod)*half + j // the core terminating agg a's uplink j
			cables = append(cables, cable{id: Target{Kind: TargetLink, Tier: ClosTierAgg, Switch: a, Port: j},
				ends:  [2]int32{int32(aggNode + a), int32(coreNode + c)},
				ports: [2]*Port{n.aggs[a].up[j], n.cores[c].down[a/topo.AggPerPod]}})
		}
	}
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

// The liveness reads of the forwarding path are the one predicate — cable
// and both end nodes up — indexed arithmetically into the usable table: ToR
// t's uplinks are the run of UplinksPerToR slots at t·UplinksPerToR, and agg
// a's the run of K/2 slots after all of those, at a·(K/2).

// torUplinks is ToR t's run of the usable table, one entry per uplink.
func (n *ClosNet) torUplinks(t int) []bool {
	u := n.topo.UplinksPerToR
	return n.faults.usable[t*u : (t+1)*u]
}

// aggUplinks is agg a's run of the usable table, one entry per core uplink.
func (n *ClosNet) aggUplinks(a int) []bool {
	topo := n.topo
	base, half := topo.NumToRs*topo.UplinksPerToR, topo.K/2
	return n.faults.usable[base+a*half : base+(a+1)*half]
}

// aggDownToTor reports whether agg a can deliver down to ToR t of its pod
// (the reverse direction of t's tier-1 cable to a).
func (n *ClosNet) aggDownToTor(a, t int) bool {
	return n.torUplinks(t)[a%n.topo.AggPerPod]
}

// coreDownToAgg reports whether core c can deliver down to the agg of
// the given pod (the reverse direction of that agg's tier-2 cable to c).
func (n *ClosNet) coreDownToAgg(c, pod int) bool {
	topo := n.topo
	half := topo.K / 2
	return n.aggUplinks(pod*topo.AggPerPod + (c/half)%topo.AggPerPod)[c%half]
}
