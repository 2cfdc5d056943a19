package graph

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// ring returns an undirected n-cycle.
func ring(n int) [][]int32 {
	adj := make([][]int32, n)
	for i := range adj {
		adj[i] = []int32{int32((i + n - 1) % n), int32((i + 1) % n)}
	}
	return adj
}

// complete returns K_n.
func complete(n int) [][]int32 {
	adj := make([][]int32, n)
	for i := range adj {
		for j := 0; j < n; j++ {
			if j != i {
				adj[i] = append(adj[i], int32(j))
			}
		}
	}
	return adj
}

// undirected returns the table of n nodes holding each edge both ways,
// in edge order.
func undirected(n int, edges [][2]int) [][]int32 {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], int32(e[1]))
		adj[e[1]] = append(adj[e[1]], int32(e[0]))
	}
	return adj
}

// bfs is the per-source oracle: hop distances from src along adj's
// present entries, Unreachable where there is no path.
func bfs(adj [][]int32, src int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range adj[v] {
			if nb >= 0 && dist[nb] == Unreachable {
				dist[nb] = dist[v] + 1
				queue = append(queue, int(nb))
			}
		}
	}
	return dist
}

// allPairsAmong is the oracle of BitBFS.PathStats: one bfs per source in
// the subset (all nodes if nil), its histogram trimmed to the largest
// finite distance.
func allPairsAmong(adj [][]int32, among []int) PathStats {
	if among == nil {
		for v := range adj {
			among = append(among, v)
		}
	}
	ps := PathStats{Hist: []int{0}}
	for _, src := range among {
		dist := bfs(adj, src)
		for _, dst := range among {
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

// sameStats compares path statistics up to trailing empty hop counts.
func sameStats(a, b PathStats) bool {
	trim := func(h []int) []int {
		for len(h) > 1 && h[len(h)-1] == 0 {
			h = h[:len(h)-1]
		}
		return h
	}
	return slices.Equal(trim(a.Hist), trim(b.Hist)) && a.Pairs == b.Pairs && a.Disconnected == b.Disconnected
}

func TestNewTable(t *testing.T) {
	adj := NewTable(3, 2)
	if len(adj) != 3 {
		t.Fatalf("%d rows, want 3", len(adj))
	}
	for v, row := range adj {
		if !slices.Equal(row, []int32{-1, -1}) {
			t.Fatalf("row %d = %v, want two absent entries", v, row)
		}
	}
	adj[0][1] = 2
	if adj[1][0] != -1 {
		t.Fatal("rows overlap")
	}
}

func TestBFSRing(t *testing.T) {
	var b BitBFS
	dist := b.Distances(ring(8))
	if want := []int{0, 1, 2, 3, 4, 3, 2, 1}; !slices.Equal(dist[0], want) {
		t.Fatalf("dist = %v, want %v", dist[0], want)
	}
}

func TestBFSDisconnected(t *testing.T) {
	adj := undirected(4, [][2]int{{0, 1}, {2, 3}})
	var b BitBFS
	dist := b.Distances(adj)
	if dist[0][2] != Unreachable || dist[0][3] != Unreachable {
		t.Fatalf("dist = %v, want unreachable for 2,3", dist[0])
	}
	if ps := b.PathStats(adj, nil); ps.Disconnected != 8 || ps.Pairs != 12 {
		t.Fatalf("stats = %+v, want 8 of 12 pairs disconnected", ps)
	}
}

func TestAllPairsComplete(t *testing.T) {
	var b BitBFS
	ps := b.PathStats(complete(6), nil)
	if ps.Pairs != 30 {
		t.Fatalf("Pairs = %d, want 30", ps.Pairs)
	}
	if ps.Hist[1] != 30 {
		t.Fatalf("Hist[1] = %d, want 30", ps.Hist[1])
	}
	if ps.Avg() != 1.0 {
		t.Fatalf("Avg = %v, want 1", ps.Avg())
	}
	if ps.Max() != 1 {
		t.Fatalf("Max = %v, want 1", ps.Max())
	}
	if ps.Disconnected != 0 || ps.ConnectivityLoss() != 0 {
		t.Fatal("complete graph should have no disconnections")
	}
}

func TestAllPairsRingCDF(t *testing.T) {
	var b BitBFS
	ps := b.PathStats(ring(6), nil)
	// In a 6-cycle: each node has 2 at dist 1, 2 at dist 2, 1 at dist 3.
	if ps.Hist[1] != 12 || ps.Hist[2] != 12 || ps.Hist[3] != 6 {
		t.Fatalf("Hist = %v", ps.Hist)
	}
	cdf := ps.CDF()
	if math.Abs(cdf[1]-12.0/30.0) > 1e-12 || math.Abs(cdf[3]-1.0) > 1e-12 {
		t.Fatalf("CDF = %v", cdf)
	}
	wantAvg := (12*1.0 + 12*2 + 6*3) / 30.0
	if math.Abs(ps.Avg()-wantAvg) > 1e-12 {
		t.Fatalf("Avg = %v, want %v", ps.Avg(), wantAvg)
	}
}

func TestAllPairsAmongSubset(t *testing.T) {
	adj := undirected(5, [][2]int{{0, 1}, {1, 2}})
	// nodes 3,4 isolated ("failed"); restrict to surviving 0,1,2
	var b BitBFS
	ps := b.PathStats(adj, []int{0, 1, 2})
	if ps.Pairs != 6 || ps.Disconnected != 0 {
		t.Fatalf("stats = %+v", ps)
	}
}

// TestRemoveNodeAndEdge masks a table as the failure analysis does: a
// −1 entry drops one direction of a link, and a failed node loses its own
// row — it can still be reached but not left, so no path runs through it
// and the pairs among survivors see it gone.
func TestRemoveNodeAndEdge(t *testing.T) {
	adj := complete(4)
	adj[0] = nil
	var b BitBFS
	if ps := b.PathStats(adj, []int{1, 2, 3}); ps.Disconnected != 0 || ps.Max() != 1 {
		t.Fatalf("survivors of node 0: %+v, want all 6 pairs at 1 hop", ps)
	}
	if ps := b.PathStats(adj, nil); ps.Disconnected != 3 {
		t.Fatalf("all nodes: %d pairs disconnected, want the 3 out of node 0", ps.Disconnected)
	}
	// Cut 1–2 both ways: 1 and 2 now meet only through 3.
	adj[1][1], adj[2][1] = -1, -1
	dist := b.Distances(adj)
	if dist[1][2] != 2 || dist[2][1] != 2 {
		t.Fatalf("1↔2 = %d, %d hops, want 2 via 3", dist[1][2], dist[2][1])
	}
	// Cut 3→2 as well: 1 reaches 2 no more, while 2 still reaches 1.
	adj[3][2] = -1
	dist = b.Distances(adj)
	if dist[1][2] != Unreachable || dist[2][1] != 2 {
		t.Fatalf("1→2 = %d, 2→1 = %d; want unreachable and 2", dist[1][2], dist[2][1])
	}
}

func TestMerge(t *testing.T) {
	var b BitBFS
	var agg PathStats
	agg.Merge(b.PathStats(ring(6), nil))
	agg.Merge(b.PathStats(undirected(4, [][2]int{{0, 1}, {2, 3}}), nil))
	want := PathStats{Hist: []int{0, 16, 12, 6}, Pairs: 42, Disconnected: 8}
	if !sameStats(agg, want) {
		t.Fatalf("merged = %+v, want %+v", agg, want)
	}
}

// randomTable returns an n-node table of the given width whose entries
// are random nodes or absent: self-loops, one-way edges and disconnected
// parts all occur.
func randomTable(rng *rand.Rand, n, width int) [][]int32 {
	adj := NewTable(n, width)
	for _, row := range adj {
		for k := range row {
			row[k] = int32(rng.Intn(n+1)) - 1
		}
	}
	return adj
}

// Reference check: the bfs oracle matches Floyd–Warshall on random
// directed tables.
func TestBFSAgainstFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(15)
		adj := randomTable(rng, n, 3)
		const inf = 1 << 29
		fw := make([][]int, n)
		for i := range fw {
			fw[i] = make([]int, n)
			for j := range fw[i] {
				if i != j {
					fw[i][j] = inf
				}
			}
		}
		for v, row := range adj {
			for _, nb := range row {
				if nb >= 0 && int(nb) != v {
					fw[v][nb] = 1
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if fw[i][k]+fw[k][j] < fw[i][j] {
						fw[i][j] = fw[i][k] + fw[k][j]
					}
				}
			}
		}
		for src := 0; src < n; src++ {
			dist := bfs(adj, src)
			for dst := 0; dst < n; dst++ {
				want := fw[src][dst]
				if want == inf {
					want = Unreachable
				}
				if dist[dst] != want {
					t.Fatalf("n=%d src=%d dst=%d: BFS=%d FW=%d", n, src, dst, dist[dst], want)
				}
			}
		}
	}
}

// FuzzAllPairsDifferential checks BitBFS's path statistics and distance
// matrix against the per-source bfs oracle on raw successor tables: every
// byte of table is an entry (a node, or −1 for 0), so absent entries,
// self-loops, one-way edges and disconnected parts all occur; subset is a
// node bitmask (all ones: every node), padded with ones.
func FuzzAllPairsDifferential(f *testing.F) {
	f.Add(uint8(4), uint8(2), []byte{2, 4, 1, 3, 2, 4, 1, 3}, []byte{0xff})
	f.Add(uint8(65), uint8(3), []byte{0, 7, 7, 200, 64, 65, 1}, []byte{0x5a, 0, 0x81})
	f.Add(uint8(1), uint8(1), []byte{}, []byte{})
	f.Add(uint8(130), uint8(2), []byte{2, 1, 3}, []byte{0x03})
	f.Fuzz(func(t *testing.T, nodes, width uint8, table, subset []byte) {
		n, w := 1+int(nodes)%130, 1+int(width)%8
		adj := NewTable(n, w)
		for v, row := range adj {
			for k := range row {
				if i := v*w + k; i < len(table) {
					row[k] = int32(table[i])%int32(n+1) - 1
				}
			}
		}
		var among []int
		for v := 0; v < n; v++ {
			if v/8 >= len(subset) || subset[v/8]>>uint(v%8)&1 == 1 {
				among = append(among, v)
			}
		}
		var b BitBFS
		for _, sub := range [][]int{nil, among} {
			if got, want := b.PathStats(adj, sub), allPairsAmong(adj, sub); !sameStats(got, want) {
				t.Fatalf("n=%d among %v: PathStats = %+v, oracle %+v", n, sub, got, want)
			}
		}
		for src, row := range b.Distances(adj) {
			if want := bfs(adj, src); !slices.Equal(row, want) {
				t.Fatalf("n=%d: Distances[%d] = %v, oracle %v", n, src, row, want)
			}
		}
	})
}

func TestSpectralGapCompleteGraph(t *testing.T) {
	// K_n: adjacency eigenvalues are n-1 (once) and -1 (n-1 times).
	// Gap = (n-1) - 1 = n-2.
	rng := rand.New(rand.NewSource(1))
	gap := SpectralGap(complete(10), 400, rng)
	if math.Abs(gap-8) > 0.05 {
		t.Fatalf("K10 spectral gap = %v, want 8", gap)
	}
}

func TestSpectralGapRing(t *testing.T) {
	// Odd cycle C_21 (non-bipartite): eigenvalues 2cos(2πk/21); the largest
	// nontrivial magnitude is |2cos(20π/21)| = 2cos(π/21).
	rng := rand.New(rand.NewSource(2))
	gap := SpectralGap(ring(21), 2000, rng)
	want := 2 - 2*math.Cos(math.Pi/21)
	if math.Abs(gap-want) > 0.02 {
		t.Fatalf("C21 gap = %v, want %v", gap, want)
	}
}

func TestSpectralGapEvenRingBipartite(t *testing.T) {
	// Even cycles are bipartite: λn = -2 ties with λ1 = 2 in magnitude, so
	// the gap is ~0 regardless of the second signed eigenvalue.
	rng := rand.New(rand.NewSource(5))
	gap := SpectralGap(ring(20), 1500, rng)
	if math.Abs(gap) > 0.02 {
		t.Fatalf("C20 gap = %v, want ~0", gap)
	}
}

func TestSpectralGapBipartite(t *testing.T) {
	// Complete bipartite K_{5,5} is 5-regular with λn = -5, so the
	// magnitude-based gap must be ~0 (bipartite graphs are poor expanders
	// in this metric).
	rng := rand.New(rand.NewSource(3))
	var edges [][2]int
	for i := 0; i < 5; i++ {
		for j := 5; j < 10; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	gap := SpectralGap(undirected(10, edges), 600, rng)
	if gap > 0.1 {
		t.Fatalf("K5,5 gap = %v, want ~0", gap)
	}
}

// TestSpectralGapSkipsAbsentEntries: −1 entries are no edges, so a ring
// padded with absent ports has the ring's gap, draw for draw.
func TestSpectralGapSkipsAbsentEntries(t *testing.T) {
	padded := ring(21)
	for v, row := range padded {
		padded[v] = []int32{-1, row[0], -1, row[1]}
	}
	a := SpectralGap(ring(21), 300, rand.New(rand.NewSource(2)))
	b := SpectralGap(padded, 300, rand.New(rand.NewSource(2)))
	if a != b {
		t.Fatalf("padded ring gap = %v, ring %v", b, a)
	}
}

func TestSpectralGapTinyAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if SpectralGap(NewTable(1, 0), 10, rng) != 0 {
		t.Fatal("single node gap should be 0")
	}
	// no edges
	if gap := SpectralGap(NewTable(4, 2), 50, rng); math.Abs(gap) > 1e-9 {
		t.Fatalf("edgeless gap = %v, want 0", gap)
	}
}

func TestRamanujanGap(t *testing.T) {
	if got := RamanujanGap(6); math.Abs(got-(6-2*math.Sqrt(5))) > 1e-12 {
		t.Fatalf("RamanujanGap(6) = %v", got)
	}
	if RamanujanGap(0.5) != 0 {
		t.Fatal("degenerate degree should return 0")
	}
}

func BenchmarkPathStats108(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	adj := randomTable(rng, 108, 6)
	for i, row := range adj {
		row[0] = int32((i + 1) % 108)
	}
	var bb BitBFS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bb.PathStats(adj, nil)
	}
}

// TestEdges pins the cable walk every fabric's fault map and the failure
// analysis share: each undirected edge once, from its lower end, in order
// of v and then of v's row, with rev the back port; absent entries and
// self-loops are no edges, and a one-way entry panics with a named
// message.
func TestEdges(t *testing.T) {
	adj := [][]int32{
		{2, 1, -1},
		{0, 1, 3},
		{3, 0},
		{1, 2},
	}
	var got [][4]int
	Edges(adj, func(v, k, w, rev int) { got = append(got, [4]int{v, k, w, rev}) })
	want := [][4]int{{0, 0, 2, 1}, {0, 1, 1, 0}, {1, 2, 3, 0}, {2, 0, 3, 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("edges %v, want %v", got, want)
	}
	for _, e := range got {
		if adj[e[2]][e[3]] != int32(e[0]) {
			t.Fatalf("edge %v: back port %d of node %d is %d", e, e[3], e[2], adj[e[2]][e[3]])
		}
	}

	// Every edge of a ring comes once: n edges, n·2 entries.
	n := 0
	Edges(ring(9), func(int, int, int, int) { n++ })
	if n != 9 {
		t.Fatalf("ring(9) has %d edges, want 9", n)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "asymmetric") || !strings.Contains(msg, "node 0 lists 2") {
			t.Fatalf("one-way entry: panic %q, want a named asymmetric-table panic", msg)
		}
	}()
	Edges([][]int32{{1, 2}, {0}, {1}}, func(int, int, int, int) {})
}
