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
	"math/rand"

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

	// Pair index helper over all racks (union bookkeeping).
	disconnectedOnce := make(map[int64]struct{})
	var worst float64
	var pathSum, pathCnt float64
	maxPath := 0

	for s := 0; s < o.SlicesPerCycle(); s++ {
		g := graph.New(n)
		for sw := 0; sw < u; sw++ {
			if swDown[sw] || o.IsTransitioning(sw, s) {
				continue
			}
			m := o.SwitchMatching(sw, s)
			for a := 0; a < n; a++ {
				b := m.Peer(a)
				if b <= a {
					continue
				}
				if torDown[a] || torDown[b] || linkDown[a][sw] || linkDown[b][sw] {
					continue
				}
				g.AddEdge(a, b)
			}
		}
		ps := g.AllPairsAmong(survivors)
		loss := ps.ConnectivityLoss()
		if loss > worst {
			worst = loss
		}
		if loss > 0 {
			// Record which pairs were disconnected this slice.
			for _, a := range survivors {
				dist := g.BFS(a)
				for _, b := range survivors {
					if a != b && dist[b] == graph.Unreachable {
						disconnectedOnce[int64(a)*int64(n)+int64(b)] = struct{}{}
					}
				}
			}
		}
		for h, c := range ps.Hist {
			pathSum += float64(h) * float64(c)
			pathCnt += float64(c)
		}
		if m := ps.Max(); m > maxPath {
			maxPath = m
		}
	}

	pairs := float64(len(survivors)) * float64(len(survivors)-1)
	res := OperaResult{
		WorstSliceLoss: worst,
		UnionLoss:      float64(len(disconnectedOnce)) / pairs,
		MaxPath:        maxPath,
	}
	if pathCnt > 0 {
		res.AvgPath = pathSum / pathCnt
	}
	return res
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
	g := e.G.Clone()
	// Sample failed edges.
	type edge struct{ a, b int }
	var edges []edge
	for v := 0; v < g.N(); v++ {
		for _, nb := range g.Neighbors(v) {
			if int(nb) > v {
				edges = append(edges, edge{v, int(nb)})
			}
		}
	}
	for _, ed := range edges {
		if rng.Float64() < fLinks {
			g.RemoveEdge(ed.a, ed.b)
		}
	}
	torDown := sampleSet(g.N(), fToRs, rng)
	survivors := make([]int, 0, g.N())
	for v := 0; v < g.N(); v++ {
		if torDown[v] {
			g.RemoveNode(v)
		} else {
			survivors = append(survivors, v)
		}
	}
	return staticStats(g, survivors)
}

// ClosFailures injects link and switch failures into a folded Clos
// (Figure 19). Links are inter-switch links; switch failures hit the
// aggregation and core tiers (failed ToRs would take their hosts with
// them, which Figure 19 separates out via the link series).
func ClosFailures(c *topology.FoldedClos, fLinks, fSwitches float64, seed int64) StaticResult {
	rng := rand.New(rand.NewSource(seed))
	g := c.RackGraph()
	type edge struct{ a, b int }
	var edges []edge
	for v := 0; v < g.N(); v++ {
		for _, nb := range g.Neighbors(v) {
			if int(nb) > v {
				edges = append(edges, edge{v, int(nb)})
			}
		}
	}
	for _, ed := range edges {
		if rng.Float64() < fLinks {
			g.RemoveEdge(ed.a, ed.b)
		}
	}
	// Upper-tier switches: indices >= NumToRs.
	for v := c.NumToRs; v < g.N(); v++ {
		if rng.Float64() < fSwitches {
			g.RemoveNode(v)
		}
	}
	survivors := make([]int, c.NumToRs)
	for i := range survivors {
		survivors[i] = i
	}
	return staticStats(g, survivors)
}

func staticStats(g *graph.Graph, survivors []int) StaticResult {
	ps := g.AllPairsAmong(survivors)
	res := StaticResult{
		Loss:    ps.ConnectivityLoss(),
		MaxPath: ps.Max(),
	}
	res.AvgPath = ps.Avg()
	return res
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
