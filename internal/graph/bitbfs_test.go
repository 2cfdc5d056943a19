package graph

import (
	"math/rand"
	"testing"
)

// TestBitBFSMatchesBFS walks the all-sources search level by level over
// random tables of sizes on both sides of the 64-node word boundary,
// sparse enough to be disconnected at times, and requires every ring to be
// exactly the oracle bfs's distance class and, once the search is done,
// every reach set its reachable nodes. One BitBFS serves every table, so
// buffer reuse across sizes is under test too.
func TestBitBFSMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b BitBFS
	for _, n := range []int{1, 2, 7, 63, 64, 65, 130, 40} {
		for _, width := range []int{1, 2, 4} {
			adj := randomTable(rng, n, width)
			for v := range adj {
				adj[v] = append([]int32{-1, int32(v)}, adj[v]...) // a dead port and a self-loop
			}
			dist := make([][]int, n)
			for src := range dist {
				dist[src] = bfs(adj, src)
			}
			b.Reset(n)
			for b.Step(adj) {
				for src := 0; src < n; src++ {
					ring, prev := b.Ring(src), b.PrevRing(src)
					for dst := 0; dst < n; dst++ {
						in := ring[dst/64]>>uint(dst%64)&1 == 1
						inPrev := prev[dst/64]>>uint(dst%64)&1 == 1
						if in != (dist[src][dst] == b.Level()) || inPrev != (dist[src][dst] == b.Level()-1) {
							t.Fatalf("n=%d level %d: %d→%d at BFS distance %d, ring=%v prev=%v",
								n, b.Level(), src, dst, dist[src][dst], in, inPrev)
						}
					}
				}
			}
			for src := 0; src < n; src++ {
				reach := b.Reach(src)
				for dst := 0; dst < n; dst++ {
					if in := reach[dst/64]>>uint(dst%64)&1 == 1; in != (dist[src][dst] != Unreachable) {
						t.Fatalf("n=%d: %d reaches %d = %v at BFS distance %d", n, src, dst, in, dist[src][dst])
					}
				}
			}
			if ps, want := b.PathStats(adj, nil), allPairsAmong(adj, nil); !sameStats(ps, want) {
				t.Fatalf("n=%d width=%d: PathStats = %+v, oracle %+v", n, width, ps, want)
			}
		}
	}
}
