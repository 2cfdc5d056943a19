package topology

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/graph"
)

// Expander is a static expander-graph network (the paper's u = 7 baseline,
// built in the style of Jellyfish [42] / Xpander [43]): every ToR dedicates
// u ports to direct ToR-to-ToR links forming a random u-regular graph, and
// d = k - u ports to hosts.
type Expander struct {
	NumRacks     int
	HostsPerRack int // d
	Degree       int // u, ToR-to-ToR links per ToR
	// Adj[r][k] is rack r's k-th neighbour, Degree entries a rack: the
	// successor table, in the order its edges were drawn.
	Adj [][]int32
}

// NewExpander builds a random u-regular graph over n racks, retrying
// realizations (deterministically from seed) until the graph is simple and
// connected. n*u must be even.
func NewExpander(n, hostsPerRack, degree int, seed int64) (*Expander, error) {
	if n < 2 || degree < 1 || degree >= n {
		return nil, fmt.Errorf("topology: invalid expander n=%d u=%d", n, degree)
	}
	if n*degree%2 != 0 {
		return nil, fmt.Errorf("topology: n*u must be even, got n=%d u=%d", n, degree)
	}
	if hostsPerRack <= 0 {
		return nil, fmt.Errorf("topology: HostsPerRack must be positive, got %d", hostsPerRack)
	}
	var bfs graph.BitBFS
	for attempt := 0; attempt < 50; attempt++ {
		rng := rand.New(rand.NewSource(seed + int64(attempt)*7919))
		adj, ok := randomRegular(n, degree, rng)
		if ok && bfs.PathStats(adj, nil).Disconnected == 0 {
			return &Expander{NumRacks: n, HostsPerRack: hostsPerRack, Degree: degree, Adj: adj}, nil
		}
	}
	return nil, fmt.Errorf("topology: no simple connected %d-regular graph found on %d nodes", degree, n)
}

// MustNewExpander is NewExpander but panics on error.
func MustNewExpander(n, hostsPerRack, degree int, seed int64) *Expander {
	e, err := NewExpander(n, hostsPerRack, degree, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// randomRegular draws a simple d-regular graph via the configuration model
// followed by double-edge-swap repair: d stubs per node are paired
// uniformly, then self-loops and parallel edges are eliminated by swapping
// endpoints with randomly chosen good edges (a standard MCMC repair that
// preserves the degree sequence and near-uniformity).
func randomRegular(n, d int, rng *rand.Rand) ([][]int32, bool) {
	stubs := make([]int32, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	type edge struct{ a, b int32 }
	key := func(a, b int32) int64 {
		if a > b {
			a, b = b, a
		}
		return int64(a)<<32 | int64(b)
	}
	edges := make([]edge, 0, n*d/2)
	count := make(map[int64]int, n*d/2)
	for i := 0; i < len(stubs); i += 2 {
		e := edge{stubs[i], stubs[i+1]}
		edges = append(edges, e)
		count[key(e.a, e.b)]++
	}
	isBad := func(e edge) bool { return e.a == e.b || count[key(e.a, e.b)] > 1 }

	// Repair loop: repeatedly pick a bad edge and a random partner edge and
	// swap endpoints if that strictly removes the violation without
	// creating a new one.
	maxIters := 200 * n * d
	for iter := 0; iter < maxIters; iter++ {
		// Find a bad edge (scan from a random offset to avoid bias).
		badIdx := -1
		off := rng.Intn(len(edges))
		for i := range edges {
			j := (i + off) % len(edges)
			if isBad(edges[j]) {
				badIdx = j
				break
			}
		}
		if badIdx == -1 {
			// Simple graph achieved: each rack's row fills in edge order.
			cells := make([]int32, n*d)
			adj := make([][]int32, n)
			for v := range adj {
				adj[v] = cells[v*d : v*d : (v+1)*d]
			}
			for _, e := range edges {
				adj[e.a] = append(adj[e.a], e.b)
				adj[e.b] = append(adj[e.b], e.a)
			}
			return adj, true
		}
		e1 := edges[badIdx]
		otherIdx := rng.Intn(len(edges))
		if otherIdx == badIdx {
			continue
		}
		e2 := edges[otherIdx]
		// Proposed rewiring: (a,b),(c,d) → (a,d),(c,b).
		n1 := edge{e1.a, e2.b}
		n2 := edge{e2.a, e1.b}
		if n1.a == n1.b || n2.a == n2.b {
			continue
		}
		// Remove old edges from counts, then test the new ones.
		count[key(e1.a, e1.b)]--
		count[key(e2.a, e2.b)]--
		if count[key(n1.a, n1.b)] > 0 || count[key(n2.a, n2.b)] > 0 || key(n1.a, n1.b) == key(n2.a, n2.b) {
			count[key(e1.a, e1.b)]++
			count[key(e2.a, e2.b)]++
			continue
		}
		count[key(n1.a, n1.b)]++
		count[key(n2.a, n2.b)]++
		edges[badIdx] = n1
		edges[otherIdx] = n2
	}
	return nil, false
}

// Peers fills peers[rack][k] with rack's k-th neighbor: the static
// fabric's one port map, as Opera.SlicePeers is a slice's.
func (e *Expander) Peers(peers [][]int32) {
	for r, row := range peers {
		copy(row, e.Adj[r])
	}
}

// FoldedClos is an M:1-oversubscribed three-tier folded-Clos network built
// from uniform radix-k switches (§2.3 and the paper's 3:1 baseline).
//
// Dimensions for radix k and oversubscription F (d:u = F:1 at the ToR):
//
//	ToR:  d = kF/(F+1) hosts down, u = k/(F+1) uplinks
//	Pod:  k/2 ToRs, u·(k/2)/(k/2) = u aggregation switches (k/2 down, k/2 up)
//	Core: pods·u·(k/2)/k switches
//	Hosts: (4F/(F+1))·(k/2)³
//
// For k=12, F=3: 72 ToRs × 9 hosts = 648 hosts, 12 pods, 36 agg, 18 core.
type FoldedClos struct {
	K             int // switch radix
	F             int // oversubscription factor (F:1)
	HostsPerToR   int // d
	UplinksPerToR int // u
	ToRsPerPod    int
	AggPerPod     int
	NumPods       int
	NumToRs       int
	NumAgg        int
	NumCore       int
}

// NewFoldedClos derives a consistent three-tier folded Clos for the given
// radix and oversubscription factor.
func NewFoldedClos(k, f int) (*FoldedClos, error) {
	if k < 4 || k%2 != 0 {
		return nil, fmt.Errorf("topology: radix must be even and >= 4, got %d", k)
	}
	if f < 1 {
		return nil, fmt.Errorf("topology: oversubscription must be >= 1, got %d", f)
	}
	if k%(f+1) != 0 {
		return nil, fmt.Errorf("topology: radix %d not divisible by F+1=%d", k, f+1)
	}
	c := &FoldedClos{
		K:             k,
		F:             f,
		HostsPerToR:   k * f / (f + 1),
		UplinksPerToR: k / (f + 1),
		ToRsPerPod:    k / 2,
	}
	// Each pod's ToR uplinks (ToRsPerPod × u) terminate on agg switches
	// with k/2 down-facing ports each.
	if c.ToRsPerPod*c.UplinksPerToR%(k/2) != 0 {
		return nil, fmt.Errorf("topology: pod wiring does not divide evenly (k=%d, F=%d)", k, f)
	}
	c.AggPerPod = c.ToRsPerPod * c.UplinksPerToR / (k / 2)
	// Host count H = (4F/(F+1))(k/2)^3 (Appendix A); pods = H/(d·ToRsPerPod).
	h := 4 * f * (k / 2) * (k / 2) * (k / 2) / (f + 1)
	c.NumPods = h / (c.HostsPerToR * c.ToRsPerPod)
	c.NumToRs = c.NumPods * c.ToRsPerPod
	c.NumAgg = c.NumPods * c.AggPerPod
	aggUplinks := c.NumAgg * (k / 2)
	if aggUplinks%k != 0 {
		return nil, fmt.Errorf("topology: core wiring does not divide evenly (k=%d, F=%d)", k, f)
	}
	c.NumCore = aggUplinks / k
	return c, nil
}

// MustNewFoldedClos is NewFoldedClos but panics on error.
func MustNewFoldedClos(k, f int) *FoldedClos {
	c, err := NewFoldedClos(k, f)
	if err != nil {
		panic(err)
	}
	return c
}

// ToRPod returns the pod of ToR t.
func (c *FoldedClos) ToRPod(t int) int { return t / c.ToRsPerPod }

// RackGraph returns the folded Clos's wiring as a switch-level successor
// table: a node per switch, each link in both rows. Node numbering is
// [0,NumToRs) ToRs, then agg, then core. It is the one statement of the
// wiring: the simulator wires switch v's port k to node adj[v][k] and
// names its cables and fault coordinates from it, and the failure analysis
// (Figure 19) masks it. Each row lists its lower-numbered neighbours first
// and ascending — a switch's down ports, over the racks below it in order
// — then its uplinks.
func (c *FoldedClos) RackGraph() [][]int32 {
	adj := make([][]int32, c.NumToRs+c.NumAgg+c.NumCore)
	link := func(a, b int) {
		adj[a] = append(adj[a], int32(b))
		adj[b] = append(adj[b], int32(a))
	}
	aggBase := c.NumToRs
	coreBase := c.NumToRs + c.NumAgg
	// ToR ↔ every agg in its pod (uplinks spread across pod aggs).
	for t := 0; t < c.NumToRs; t++ {
		pod := c.ToRPod(t)
		for a := 0; a < c.AggPerPod; a++ {
			link(t, aggBase+pod*c.AggPerPod+a)
		}
	}
	// Agg ↔ core: agg a (global index) has k/2 uplinks striped across core
	// switches: agg with in-pod index p connects to core switches
	// [p·(k/2) … (p+1)·(k/2)) when cores are grouped per in-pod position.
	corePerAgg := c.K / 2
	for pod := 0; pod < c.NumPods; pod++ {
		for p := 0; p < c.AggPerPod; p++ {
			agg := aggBase + pod*c.AggPerPod + p
			for i := 0; i < corePerAgg; i++ {
				link(agg, coreBase+(p*corePerAgg+i)%c.NumCore)
			}
		}
	}
	return adj
}
