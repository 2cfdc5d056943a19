// Package faults implements the failure analysis of §5.5 and Appendix E:
// random link, ToR, and circuit-switch failures are injected into Opera and
// the baseline topologies, and the impact is measured as connectivity loss
// (fraction of disconnected rack pairs, Figure 11) and path stretch
// (average/worst path length among survivors, Figures 18–20).
//
// Every fabric is measured the same way, as a schedule of slices: Opera
// has one per slice of its cycle, and a static expander or Clos is a
// one-slice schedule, so its worst-slice and across-all-slices losses
// coincide.
//
// A figure's failure fraction f is a count for some element kinds and a
// probability for others. Opera's links, ToRs and switches and the
// expander's ToRs fail exactly round(f·n) of their n elements; the static
// fabrics' links and the Clos's aggregation and core switches each fail
// with independent probability f. TestSamplingCountsAndProbabilities pins
// both; the difference is a candidate row for the register of deliberate
// deviations from the paper.
//
// Opera's routing reacts to failures by recomputing paths on the surviving
// graph (§3.6.2); this package models the post-convergence state.
package faults

import (
	"math/bits"
	"math/rand"
	"slices"

	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/topology"
)

// Result aggregates failure impact on a fabric across its schedule of
// slices.
type Result struct {
	// WorstSliceLoss is the largest fraction of disconnected ordered
	// surviving-ToR pairs in any single slice.
	WorstSliceLoss float64
	// UnionLoss counts pairs disconnected in at least one slice, as a
	// fraction — the paper's "across all slices" series.
	UnionLoss float64
	// AvgPath and MaxPath summarize finite path lengths over all slices.
	AvgPath float64
	MaxPath int
}

// OperaFailures injects the given failure fractions (of ToR-to-rotor
// links, of ToRs, and of rotor switches) and measures connectivity and
// path length across every slice of the cycle.
func OperaFailures(o *topology.Opera, fLinks, fToRs, fSwitches float64, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	n, u := o.NumRacks(), o.Uplinks()
	linkDown := sampleSet(n*u, fLinks, rng) // rack a's uplink to switch sw is a*u+sw
	torDown := sampleSet(n, fToRs, rng)
	swDown := sampleSet(u, fSwitches, rng)
	peers := graph.NewTable(n, u)
	return measure(o.SlicesPerCycle(), torDown, func(s int) [][]int32 {
		o.SlicePeers(s, peers)
		for a, row := range peers {
			for sw, b := range row {
				if b >= 0 && (swDown[sw] || linkDown[a*u+sw] || linkDown[int(b)*u+sw]) {
					row[sw] = -1
				}
			}
		}
		return peers
	})
}

// ExpanderFailures injects link and ToR failures into a static expander
// (Figure 20).
func ExpanderFailures(e *topology.Expander, fLinks, fToRs float64, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	adj := cutLinks(e.Adj, fLinks, rng)
	return measure(1, sampleSet(len(adj), fToRs, rng), func(int) [][]int32 { return adj })
}

// ClosFailures injects link and switch failures into a folded Clos
// (Figure 19). Links are inter-switch links; switch failures hit the
// aggregation and core tiers (failed ToRs would take their hosts with
// them, which Figure 19 separates out via the link series).
func ClosFailures(c *topology.FoldedClos, fLinks, fSwitches float64, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	adj := cutLinks(c.RackGraph(), fLinks, rng)
	// Upper-tier switches: indices >= NumToRs.
	for v := c.NumToRs; v < len(adj); v++ {
		if rng.Float64() < fSwitches {
			adj[v] = nil
		}
	}
	return measure(1, make([]bool, c.NumToRs), func(int) [][]int32 { return adj })
}

// measure is the one failure analysis: slice(s) returns slice s's
// successor table with its failed links and switches masked, whose first
// len(torDown) nodes are the ToRs and any further ones switches, crossed
// but not measured. measure masks the rows of the failed ToRs — a failed
// node can be reached but not left, so no path among survivors runs
// through it — and measures loss and path length among the surviving ToRs.
func measure(slices int, torDown []bool, slice func(s int) [][]int32) Result {
	survivors := make([]int, 0, len(torDown))
	for r, down := range torDown {
		if !down {
			survivors = append(survivors, r)
		}
	}
	if len(survivors) < 2 {
		return Result{}
	}

	// cut[i] gathers the survivors that survivor i failed to reach in at
	// least one slice: the complement of its reach set, OR-ed per slice.
	w := (len(torDown) + 63) / 64
	alive := make([]uint64, w)
	for _, r := range survivors {
		alive[r/64] |= 1 << uint(r%64)
	}
	cut := make([]uint64, len(survivors)*w)
	var res Result
	var agg graph.PathStats
	var bfs graph.BitBFS
	for s := 0; s < slices; s++ {
		adj := slice(s)
		for r, down := range torDown {
			if down {
				for k := range adj[r] {
					adj[r][k] = -1
				}
			}
		}
		ps := bfs.PathStats(adj, survivors)
		res.WorstSliceLoss = max(res.WorstSliceLoss, ps.ConnectivityLoss())
		for i, a := range survivors {
			for j, x := range bfs.Reach(a)[:w] {
				cut[i*w+j] |= alive[j] &^ x
			}
		}
		agg.Merge(ps)
	}

	unreached := 0
	for _, x := range cut {
		unreached += bits.OnesCount64(x)
	}
	res.UnionLoss = float64(unreached) / (float64(len(survivors)) * float64(len(survivors)-1))
	res.AvgPath, res.MaxPath = agg.Avg(), agg.Max()
	return res
}

// cutLinks returns a copy of the undirected table topo with each link cut
// — absent both ways — with probability frac, drawing once per link in
// graph.Edges order.
func cutLinks(topo [][]int32, frac float64, rng *rand.Rand) [][]int32 {
	adj := make([][]int32, len(topo))
	for v, row := range topo {
		adj[v] = slices.Clone(row)
	}
	graph.Edges(topo, func(v, k, w, rev int) {
		if rng.Float64() < frac {
			adj[v][k], adj[w][rev] = -1, -1
		}
	})
	return adj
}

// sampleSet fails exactly round(frac·n) of n elements, drawn as a prefix
// of one permutation.
func sampleSet(n int, frac float64, rng *rand.Rand) []bool {
	out := make([]bool, n)
	k := int(frac*float64(n) + 0.5)
	for _, idx := range rng.Perm(n)[:min(k, n)] {
		out[idx] = true
	}
	return out
}
