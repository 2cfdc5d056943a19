// Package faults implements the failure analysis of §5.5 and Appendix E:
// random link, ToR, and circuit-switch failures are injected into Opera and
// the baseline topologies, and the impact is measured as connectivity loss
// (fraction of disconnected rack pairs, Figure 11) and path stretch
// (average/worst path length among survivors, Figures 18–20).
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

// OperaResult aggregates failure impact on an Opera network across one
// full cycle of topology slices.
type OperaResult struct {
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
// path length across every slice of the cycle. Loss is measured among
// non-failed ToRs, as in Figure 11.
func OperaFailures(o *topology.Opera, fLinks, fToRs, fSwitches float64, seed int64) OperaResult {
	rng := rand.New(rand.NewSource(seed))
	n := o.NumRacks()
	u := o.Uplinks()

	linkDown := sampleMatrix(n, u, fLinks, rng) // [rack][switch]
	torDown := sampleSet(n, fToRs, rng)
	swDown := sampleSet(u, fSwitches, rng)

	survivors := make([]int, 0, n)
	for r := 0; r < n; r++ {
		if !torDown[r] {
			survivors = append(survivors, r)
		}
	}
	if len(survivors) < 2 {
		return OperaResult{}
	}

	// cut[i] gathers the survivors that survivor i failed to reach in at
	// least one slice: the complement of its reach set, OR-ed per slice.
	w := (n + 63) / 64
	alive := make([]uint64, w)
	for _, r := range survivors {
		alive[r/64] |= 1 << uint(r%64)
	}
	cut := make([]uint64, len(survivors)*w)
	var worst float64
	var agg graph.PathStats

	peers := graph.NewTable(n, u)
	var bfs graph.BitBFS
	for s := 0; s < o.SlicesPerCycle(); s++ {
		o.SlicePeers(s, peers)
		for a, row := range peers {
			for sw, b := range row {
				if b >= 0 && (swDown[sw] || torDown[a] || torDown[b] || linkDown[a][sw] || linkDown[b][sw]) {
					row[sw] = -1
				}
			}
		}
		ps := bfs.PathStats(peers, survivors)
		if loss := ps.ConnectivityLoss(); loss > worst {
			worst = loss
		}
		for i, a := range survivors {
			for j, x := range bfs.Reach(a) {
				cut[i*w+j] |= alive[j] &^ x
			}
		}
		agg.Merge(ps)
	}

	unreached := 0
	for _, x := range cut {
		unreached += bits.OnesCount64(x)
	}
	pairs := float64(len(survivors)) * float64(len(survivors)-1)
	return OperaResult{
		WorstSliceLoss: worst,
		UnionLoss:      float64(unreached) / pairs,
		AvgPath:        agg.Avg(),
		MaxPath:        agg.Max(),
	}
}

// StaticResult aggregates failure impact on a static topology.
type StaticResult struct {
	Loss    float64 // fraction of disconnected ordered surviving-ToR pairs
	AvgPath float64
	MaxPath int
}

// ExpanderFailures injects link and ToR failures into a static expander
// (Figure 20).
func ExpanderFailures(e *topology.Expander, fLinks, fToRs float64, seed int64) StaticResult {
	rng := rand.New(rand.NewSource(seed))
	adj := cutLinks(e.Adj, fLinks, rng)
	torDown := sampleSet(len(adj), fToRs, rng)
	survivors := make([]int, 0, len(adj))
	for v := range adj {
		if torDown[v] {
			adj[v] = nil
		} else {
			survivors = append(survivors, v)
		}
	}
	return staticStats(adj, survivors)
}

// ClosFailures injects link and switch failures into a folded Clos
// (Figure 19). Links are inter-switch links; switch failures hit the
// aggregation and core tiers (failed ToRs would take their hosts with
// them, which Figure 19 separates out via the link series).
func ClosFailures(c *topology.FoldedClos, fLinks, fSwitches float64, seed int64) StaticResult {
	rng := rand.New(rand.NewSource(seed))
	adj := cutLinks(c.RackGraph(), fLinks, rng)
	// Upper-tier switches: indices >= NumToRs.
	for v := c.NumToRs; v < len(adj); v++ {
		if rng.Float64() < fSwitches {
			adj[v] = nil
		}
	}
	survivors := make([]int, c.NumToRs)
	for i := range survivors {
		survivors[i] = i
	}
	return staticStats(adj, survivors)
}

// cutLinks returns a copy of the undirected table topo with each link cut
// — absent both ways — with probability frac, drawing once per link in
// graph.Edges order. A failed node is then removed by dropping its row: it
// can be reached but not left, so no path among survivors runs through it.
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

func staticStats(adj [][]int32, survivors []int) StaticResult {
	var bfs graph.BitBFS
	ps := bfs.PathStats(adj, survivors)
	return StaticResult{
		Loss:    ps.ConnectivityLoss(),
		AvgPath: ps.Avg(),
		MaxPath: ps.Max(),
	}
}

func sampleSet(n int, frac float64, rng *rand.Rand) []bool {
	out := make([]bool, n)
	k := int(frac*float64(n) + 0.5)
	for _, idx := range rng.Perm(n)[:min(k, n)] {
		out[idx] = true
	}
	return out
}

func sampleMatrix(n, m int, frac float64, rng *rand.Rand) [][]bool {
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, m)
	}
	k := int(frac*float64(n*m) + 0.5)
	for _, idx := range rng.Perm(n * m)[:min(k, n*m)] {
		out[idx/m][idx%m] = true
	}
	return out
}
