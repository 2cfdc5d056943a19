// Package graph implements the graph algorithms behind Opera's analysis:
// shortest-path distances, all-pairs path-length distributions,
// connectivity accounting under failures, and spectral-gap estimation for
// expander quality (Appendix D of the paper).
//
// A graph has one form, the successor table: adj[v][k] is node v's k-th
// neighbour and a negative entry is an absent edge — the shape of a
// ToR's port map (routing.PortMap), so a topology slice, a static
// expander and a failure-masked copy of either are analysed as they are
// routed. Tables are read as directed; the topologies here are
// symmetric, and a failure masks both directions of a cable. Every path
// question is answered by one bit-parallel search from all nodes at once
// (BitBFS): exact integer distances, no per-source walk.
package graph

import (
	"fmt"
	"slices"
)

// Unreachable is the distance reported for disconnected node pairs.
const Unreachable = -1

// NewTable returns an edgeless successor table of n rows of width
// entries each, over one backing array: every entry is −1.
func NewTable(n, width int) [][]int32 {
	cells := make([]int32, n*width)
	for i := range cells {
		cells[i] = -1
	}
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = cells[v*width : (v+1)*width]
	}
	return adj
}

// Edges visits each undirected edge of the symmetric table adj once, from
// its lower-numbered end: fn(v, k, w, rev) for every adj[v][k] = w > v,
// where rev is the back port, adj[w][rev] = v. Visits run in order of v,
// then of v's row — a fabric's cable order. Absent entries and self-loops
// are skipped; the table must be simple, and an edge its upper end does
// not list back panics.
func Edges(adj [][]int32, fn func(v, k, w, rev int)) {
	for v, row := range adj {
		for k, w := range row {
			if int(w) <= v {
				continue
			}
			rev := slices.Index(adj[w], int32(v))
			if rev < 0 {
				panic(fmt.Sprintf("graph: asymmetric table: node %d lists %d, which does not list it back", v, w))
			}
			fn(v, k, int(w), rev)
		}
	}
}

// PathStats summarizes an all-pairs path-length computation.
type PathStats struct {
	// Hist[h] counts ordered node pairs at distance h (Hist[0] is unused).
	Hist []int
	// Disconnected counts ordered pairs with no path.
	Disconnected int
	// Pairs is the number of ordered pairs considered (N*(N-1) by default).
	Pairs int
}

// Merge adds o's pairs to ps: the statistics of the union of the two pair
// sets, as every slice of a cycle adds up to Figure 4's CDF.
func (ps *PathStats) Merge(o PathStats) {
	for len(ps.Hist) < len(o.Hist) {
		ps.Hist = append(ps.Hist, 0)
	}
	for h, c := range o.Hist {
		ps.Hist[h] += c
	}
	ps.Pairs += o.Pairs
	ps.Disconnected += o.Disconnected
}

// Avg returns the mean path length over connected pairs, or 0 if none.
func (ps PathStats) Avg() float64 {
	var sum, n float64
	for h, c := range ps.Hist {
		sum += float64(h) * float64(c)
		n += float64(c)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// Max returns the largest finite distance (the diameter over connected
// pairs), or 0 if no pair is connected.
func (ps PathStats) Max() int {
	for h := len(ps.Hist) - 1; h >= 1; h-- {
		if ps.Hist[h] > 0 {
			return h
		}
	}
	return 0
}

// CDF returns the cumulative fraction of connected, ordered pairs within
// each hop count h = 1..Max. Disconnected pairs are excluded, matching how
// Figure 4 of the paper plots path-length CDFs.
func (ps PathStats) CDF() []float64 {
	max := ps.Max()
	out := make([]float64, max+1)
	var total float64
	for _, c := range ps.Hist {
		total += float64(c)
	}
	if total == 0 {
		return out
	}
	cum := 0.0
	for h := 1; h <= max; h++ {
		cum += float64(ps.Hist[h])
		out[h] = cum / total
	}
	return out
}

// ConnectivityLoss returns the fraction of ordered pairs that are
// disconnected, the metric of Figure 11.
func (ps PathStats) ConnectivityLoss() float64 {
	if ps.Pairs == 0 {
		return 0
	}
	return float64(ps.Disconnected) / float64(ps.Pairs)
}
