// Package graph implements the graph algorithms behind Opera's analysis:
// breadth-first shortest paths, all-pairs path-length distributions,
// connectivity accounting under failures, and spectral-gap estimation for
// expander quality (Appendix D of the paper).
//
// Graphs are simple undirected adjacency structures over integer node IDs
// (racks, in Opera's case). They are deliberately small and dense in use —
// hundreds to a few thousand nodes — so adjacency lists plus O(V·E) BFS
// sweeps are exact and fast; no approximation is needed anywhere.
package graph

import "fmt"

// Unreachable is the distance reported for disconnected node pairs.
const Unreachable = -1

// Graph is an undirected graph over nodes 0..N-1. Parallel edges are
// collapsed; self-loops are ignored (an Opera matching that maps a rack to
// itself provides no connectivity and is modelled as an unused port).
type Graph struct {
	n   int
	adj [][]int32
	set []map[int32]struct{} // lazily built edge membership for AddEdge dedup
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{
		n:   n,
		adj: make([][]int32, n),
		set: make([]map[int32]struct{}, n),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Neighbors returns the adjacency list of v. The caller must not modify it.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// AddEdge inserts the undirected edge (a, b). Self-loops and duplicate edges
// are silently ignored so callers can union matchings without bookkeeping.
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		return
	}
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", a, b, g.n))
	}
	if g.hasEdge(a, b) {
		return
	}
	g.ensureSet(b)
	g.adj[a] = append(g.adj[a], int32(b))
	g.adj[b] = append(g.adj[b], int32(a))
	g.set[a][int32(b)] = struct{}{}
	g.set[b][int32(a)] = struct{}{}
}

// HasEdge reports whether the undirected edge (a, b) is present.
func (g *Graph) HasEdge(a, b int) bool {
	if a == b || a < 0 || a >= g.n || b < 0 || b >= g.n {
		return false
	}
	return g.hasEdge(a, b)
}

func (g *Graph) hasEdge(a, b int) bool {
	g.ensureSet(a)
	_, ok := g.set[a][int32(b)]
	return ok
}

// ensureSet lazily (re)builds the membership map for node v from its
// adjacency list.
func (g *Graph) ensureSet(v int) {
	if g.set[v] == nil {
		g.set[v] = make(map[int32]struct{}, 8)
		for _, x := range g.adj[v] {
			g.set[v][x] = struct{}{}
		}
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New(g.n)
	for v, ns := range g.adj {
		out.adj[v] = append([]int32(nil), ns...)
	}
	return out
}

// RemoveNode disconnects v from all neighbors (the node ID remains valid but
// isolated). It models a failed rack or switch.
func (g *Graph) RemoveNode(v int) {
	for _, nb := range g.adj[v] {
		g.removeDirected(int(nb), v)
	}
	g.adj[v] = g.adj[v][:0]
	g.set[v] = nil
}

// RemoveEdge deletes the undirected edge (a, b) if present.
func (g *Graph) RemoveEdge(a, b int) {
	if !g.HasEdge(a, b) {
		return
	}
	g.removeDirected(a, b)
	g.removeDirected(b, a)
}

func (g *Graph) removeDirected(from, to int) {
	ns := g.adj[from]
	for i, x := range ns {
		if int(x) == to {
			ns[i] = ns[len(ns)-1]
			g.adj[from] = ns[:len(ns)-1]
			break
		}
	}
	if g.set[from] != nil {
		delete(g.set[from], int32(to))
	}
}

// BFS computes hop distances from src to every node. Unreachable nodes get
// distance Unreachable. The returned slice has length N.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		dv := dist[v]
		for _, nb := range g.adj[v] {
			if dist[nb] == Unreachable {
				dist[nb] = dv + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
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

// AllPairs runs BFS from every node and aggregates the distance histogram
// over ordered pairs (u, v), u != v.
func (g *Graph) AllPairs() PathStats {
	return g.AllPairsAmong(nil)
}

// AllPairsAmong restricts the all-pairs statistics to the given node subset
// (both endpoints must be in the subset). A nil subset means all nodes. This
// supports the paper's failure analysis, where connectivity loss is measured
// among non-failed ToRs only.
func (g *Graph) AllPairsAmong(subset []int) PathStats {
	nodes := subset
	if nodes == nil {
		nodes = make([]int, g.n)
		for i := range nodes {
			nodes[i] = i
		}
	}
	inSubset := make([]bool, g.n)
	for _, v := range nodes {
		inSubset[v] = true
	}
	ps := PathStats{Hist: make([]int, 8)}
	for _, src := range nodes {
		dist := g.BFS(src)
		for _, dst := range nodes {
			if dst == src {
				continue
			}
			ps.Pairs++
			d := dist[dst]
			if d == Unreachable {
				ps.Disconnected++
				continue
			}
			for len(ps.Hist) <= d {
				ps.Hist = append(ps.Hist, 0)
			}
			ps.Hist[d]++
		}
	}
	return ps
}

// Connected reports whether all nodes with at least one edge plus all nodes
// in 0..N-1 form a single connected component. Isolated nodes make the graph
// disconnected unless N <= 1.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}
