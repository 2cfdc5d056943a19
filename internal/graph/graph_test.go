package graph

import (
	"math"
	"math/rand"
	"testing"
)

// ring returns an n-cycle.
func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// complete returns K_n.
func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestAddEdgeDedup(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 1) // self-loop ignored
	if len(g.adj[0]) != 1 || len(g.adj[1]) != 1 {
		t.Fatalf("adjacency %v, want the one edge (0,1)", g.adj)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing")
	}
	if g.HasEdge(1, 1) || g.HasEdge(0, 2) {
		t.Fatal("phantom edge present")
	}
	if len(g.adj[0]) != 1 || len(g.adj[2]) != 0 {
		t.Fatalf("degrees wrong: %d, %d", len(g.adj[0]), len(g.adj[2]))
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range edge did not panic")
		}
	}()
	g.AddEdge(0, 5)
}

func TestBFSRing(t *testing.T) {
	g := ring(8)
	dist := g.BFS(0)
	want := []int{0, 1, 2, 3, 4, 3, 2, 1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("dist = %v, want unreachable for 2,3", dist)
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestAllPairsComplete(t *testing.T) {
	g := complete(6)
	ps := g.AllPairs()
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
	g := ring(6)
	ps := g.AllPairs()
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
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	// nodes 3,4 isolated ("failed"); restrict to surviving 0,1,2
	ps := g.AllPairsAmong([]int{0, 1, 2})
	if ps.Pairs != 6 || ps.Disconnected != 0 {
		t.Fatalf("stats = %+v", ps)
	}
}

func TestRemoveNodeAndEdge(t *testing.T) {
	g := complete(4)
	g.RemoveNode(0)
	if len(g.adj[0]) != 0 {
		t.Fatal("removed node still has edges")
	}
	for v := 1; v < 4; v++ {
		if g.HasEdge(v, 0) {
			t.Fatal("neighbor still links to removed node")
		}
	}
	if !g.Connected() == false {
		// 0 is isolated: graph is disconnected overall
		t.Log("graph disconnected as expected")
	}
	ps := g.AllPairsAmong([]int{1, 2, 3})
	if ps.Disconnected != 0 {
		t.Fatal("survivors should remain connected")
	}
	g.RemoveEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("edge still present after removal")
	}
	g.RemoveEdge(1, 2) // idempotent
}

func TestClone(t *testing.T) {
	g := ring(5)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("mutation of clone affected original")
	}
	if c.HasEdge(0, 1) {
		t.Fatal("clone edge not removed")
	}
}

// Reference check: BFS distances match Floyd–Warshall on random graphs.
func TestBFSAgainstFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(15)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
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
		for v := 0; v < n; v++ {
			for _, nb := range g.Neighbors(v) {
				fw[v][nb] = 1
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
			dist := g.BFS(src)
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

func TestSpectralGapCompleteGraph(t *testing.T) {
	// K_n: adjacency eigenvalues are n-1 (once) and -1 (n-1 times).
	// Gap = (n-1) - 1 = n-2.
	rng := rand.New(rand.NewSource(1))
	g := complete(10)
	gap := g.SpectralGap(400, rng)
	if math.Abs(gap-8) > 0.05 {
		t.Fatalf("K10 spectral gap = %v, want 8", gap)
	}
}

func TestSpectralGapRing(t *testing.T) {
	// Odd cycle C_21 (non-bipartite): eigenvalues 2cos(2πk/21); the largest
	// nontrivial magnitude is |2cos(20π/21)| = 2cos(π/21).
	rng := rand.New(rand.NewSource(2))
	g := ring(21)
	gap := g.SpectralGap(2000, rng)
	want := 2 - 2*math.Cos(math.Pi/21)
	if math.Abs(gap-want) > 0.02 {
		t.Fatalf("C21 gap = %v, want %v", gap, want)
	}
}

func TestSpectralGapEvenRingBipartite(t *testing.T) {
	// Even cycles are bipartite: λn = -2 ties with λ1 = 2 in magnitude, so
	// the gap is ~0 regardless of the second signed eigenvalue.
	rng := rand.New(rand.NewSource(5))
	g := ring(20)
	gap := g.SpectralGap(1500, rng)
	if math.Abs(gap) > 0.02 {
		t.Fatalf("C20 gap = %v, want ~0", gap)
	}
}

func TestSpectralGapBipartite(t *testing.T) {
	// Complete bipartite K_{5,5} is 5-regular with λn = -5, so the
	// magnitude-based gap must be ~0 (bipartite graphs are poor expanders
	// in this metric).
	rng := rand.New(rand.NewSource(3))
	g := New(10)
	for i := 0; i < 5; i++ {
		for j := 5; j < 10; j++ {
			g.AddEdge(i, j)
		}
	}
	gap := g.SpectralGap(600, rng)
	if gap > 0.1 {
		t.Fatalf("K5,5 gap = %v, want ~0", gap)
	}
}

func TestSpectralGapTinyAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if g := New(1); g.SpectralGap(10, rng) != 0 {
		t.Fatal("single node gap should be 0")
	}
	g := New(4) // no edges
	if gap := g.SpectralGap(50, rng); math.Abs(gap) > 1e-9 {
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

func BenchmarkAllPairs108(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := New(108)
	for i := 0; i < 108; i++ {
		g.AddEdge(i, (i+1)%108)
	}
	for i := 0; i < 5*108; i++ {
		g.AddEdge(rng.Intn(108), rng.Intn(108))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.AllPairs()
	}
}
