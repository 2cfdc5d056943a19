package graph

import (
	"math/rand"
	"testing"
)

// TestBitBFSMatchesBFS walks the all-sources search level by level over
// random graphs of sizes on both sides of the 64-node word boundary,
// sparse enough to be disconnected at times, and requires every ring to be
// exactly BFS's distance class — then the same of Diameter against
// AllPairs. One BitBFS serves every graph, so buffer reuse across sizes is
// under test too.
func TestBitBFSMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b BitBFS
	for _, n := range []int{1, 2, 7, 63, 64, 65, 130, 40} {
		for _, edges := range []int{n / 2, n, 3 * n} {
			g := New(n)
			for i := 0; i < edges; i++ {
				g.AddEdge(rng.Intn(n), rng.Intn(n))
			}
			adj := make([][]int32, n)
			for v := range adj {
				adj[v] = append([]int32{-1, int32(v)}, g.Neighbors(v)...) // a dead port and a self-loop
			}
			b.Reset(n)
			for b.Step(adj) {
				for src := 0; src < n; src++ {
					dist := g.BFS(src)
					ring, prev := b.Ring(src), b.PrevRing(src)
					for dst := 0; dst < n; dst++ {
						in := ring[dst/64]>>uint(dst%64)&1 == 1
						inPrev := prev[dst/64]>>uint(dst%64)&1 == 1
						if in != (dist[dst] == b.Level()) || inPrev != (dist[dst] == b.Level()-1) {
							t.Fatalf("n=%d level %d: %d→%d at BFS distance %d, ring=%v prev=%v",
								n, b.Level(), src, dst, dist[dst], in, inPrev)
						}
					}
				}
			}
			ps := g.AllPairs()
			diameter, connected := b.Diameter(adj)
			if diameter != ps.Max() || connected != (ps.Disconnected == 0) {
				t.Fatalf("n=%d edges=%d: Diameter = %d, %v; AllPairs says %d, %d disconnected",
					n, edges, diameter, connected, ps.Max(), ps.Disconnected)
			}
		}
	}
}
