package topology

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/graph"
)

func TestExpanderPaperBaseline(t *testing.T) {
	// §5: 650-host u=7 expander on k=12 ToRs (d=5 hosts each, 130 racks).
	e := MustNewExpander(130, 5, 7, 1)
	if n := e.NumRacks * e.HostsPerRack; n != 650 {
		t.Fatalf("hosts = %d, want 650", n)
	}
	for v := 0; v < e.NumRacks; v++ {
		if d := len(e.Adj[v]); d != 7 {
			t.Fatalf("rack %d degree %d, want 7", v, d)
		}
	}
	if !connected(e.Adj) {
		t.Fatal("expander disconnected")
	}
	if !simple(e.Adj) {
		t.Fatal("expander has a self-loop, duplicate or one-way edge")
	}
	var bfs graph.BitBFS
	ps := bfs.PathStats(e.Adj, nil)
	if ps.Avg() < 2 || ps.Avg() > 3.2 {
		t.Fatalf("avg path = %v, want ~2.5", ps.Avg())
	}
}

func TestExpanderSpectralQuality(t *testing.T) {
	// A random 7-regular graph should be near-Ramanujan: gap within ~60%
	// of 7 - 2*sqrt(6) ≈ 2.1 (random regular graphs are almost Ramanujan).
	e := MustNewExpander(130, 5, 7, 2)
	rng := rand.New(rand.NewSource(1))
	gap := graph.SpectralGap(e.Adj, 600, rng)
	ideal := graph.RamanujanGap(7)
	if gap < 0.5*ideal {
		t.Fatalf("spectral gap %.3f too small vs Ramanujan %.3f", gap, ideal)
	}
	if gap > 7 {
		t.Fatalf("spectral gap %.3f impossible", gap)
	}
}

func TestExpanderErrors(t *testing.T) {
	if _, err := NewExpander(1, 1, 1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewExpander(5, 1, 3, 1); err == nil {
		t.Fatal("odd n*u accepted")
	}
	if _, err := NewExpander(10, 0, 3, 1); err == nil {
		t.Fatal("zero hosts accepted")
	}
	if _, err := NewExpander(10, 1, 10, 1); err == nil {
		t.Fatal("degree >= n accepted")
	}
}

func TestExpanderDeterminism(t *testing.T) {
	a := MustNewExpander(64, 4, 5, 42)
	b := MustNewExpander(64, 4, 5, 42)
	for v := 0; v < 64; v++ {
		if !slices.Equal(a.Adj[v], b.Adj[v]) {
			t.Fatal("same seed, different graphs")
		}
	}
}

func TestFoldedClosPaperBaseline(t *testing.T) {
	// §5: 648-host 3:1 folded Clos on k=12 switches.
	c := MustNewFoldedClos(12, 3)
	if n := c.NumToRs * c.HostsPerToR; n != 648 {
		t.Fatalf("hosts = %d, want 648", n)
	}
	if c.HostsPerToR != 9 || c.UplinksPerToR != 3 {
		t.Fatalf("ToR split %d:%d, want 9:3", c.HostsPerToR, c.UplinksPerToR)
	}
	if c.NumToRs != 72 || c.NumPods != 12 || c.NumAgg != 36 || c.NumCore != 18 {
		t.Fatalf("dims = %d ToRs %d pods %d agg %d core", c.NumToRs, c.NumPods, c.NumAgg, c.NumCore)
	}
}

func TestFoldedClosK24(t *testing.T) {
	c := MustNewFoldedClos(24, 3)
	// H = (4·3/4)·12³ = 5184.
	if n := c.NumToRs * c.HostsPerToR; n != 5184 {
		t.Fatalf("hosts = %d, want 5184", n)
	}
}

func TestFoldedClosFullyProvisioned(t *testing.T) {
	c := MustNewFoldedClos(8, 1)
	// F=1: d=u=4; H = 2·64 = 128.
	if n := c.NumToRs * c.HostsPerToR; n != 128 {
		t.Fatalf("hosts = %d, want 128", n)
	}
}

func TestFoldedClosErrors(t *testing.T) {
	if _, err := NewFoldedClos(3, 1); err == nil {
		t.Fatal("odd radix accepted")
	}
	if _, err := NewFoldedClos(12, 0); err == nil {
		t.Fatal("F=0 accepted")
	}
	if _, err := NewFoldedClos(12, 4); err == nil {
		t.Fatal("F=4 with k=12 accepted (k not divisible by F+1)")
	}
}

func TestFoldedClosRackGraph(t *testing.T) {
	c := MustNewFoldedClos(12, 3)
	adj := c.RackGraph()
	if !connected(adj) {
		t.Fatal("Clos rack graph disconnected")
	}
	// Every ToR reaches every other ToR in ≤ 4 switch-graph hops
	// (ToR-agg-core-agg-ToR).
	var bfs graph.BitBFS
	dist := bfs.Distances(adj)[0]
	for v := 1; v < c.NumToRs; v++ {
		if dist[v] > 4 {
			t.Fatalf("ToR 0 to ToR %d distance %d > 4", v, dist[v])
		}
	}
	// The failure analysis draws each link once: the wiring has no
	// duplicate link at any radix the figures use.
	for _, kf := range [][2]int{{8, 3}, {12, 3}, {24, 3}, {8, 1}} {
		if !simple(MustNewFoldedClos(kf[0], kf[1]).RackGraph()) {
			t.Fatalf("k=%d F=%d: a self-loop, duplicate or one-way link", kf[0], kf[1])
		}
	}
	// Core switch radix check: each core has exactly NumPods edges... each
	// core connects once per pod.
	coreBase := c.NumToRs + c.NumAgg
	for core := coreBase; core < coreBase+c.NumCore; core++ {
		if d := len(adj[core]); d != c.NumPods {
			t.Fatalf("core %d degree %d, want %d", core, d, c.NumPods)
		}
	}
}

// TestFoldedClosRackGraphRowOrder pins the row order the simulator wires
// its switches by: a row lists its lower-numbered neighbours — the switch's
// down ports — first and ascending, then its uplinks. A ToR's row is all
// uplinks (its aggs), a core's all down ports (one agg per pod), and an
// agg's is its pod's ToRs, then its cores.
func TestFoldedClosRackGraphRowOrder(t *testing.T) {
	for _, kf := range [][2]int{{8, 3}, {12, 3}, {8, 1}} {
		c := MustNewFoldedClos(kf[0], kf[1])
		for v, row := range c.RackGraph() {
			down := 0
			for down < len(row) && int(row[down]) < v {
				if down > 0 && row[down] <= row[down-1] {
					t.Fatalf("k=%d F=%d node %d: down neighbours %v not ascending", kf[0], kf[1], v, row)
				}
				down++
			}
			for _, w := range row[down:] {
				if int(w) < v {
					t.Fatalf("k=%d F=%d node %d: lower neighbour %d after an uplink in %v", kf[0], kf[1], v, w, row)
				}
			}
			want := [3]int{0, c.ToRsPerPod, c.NumPods} // ToR, agg, core
			tier := 0
			if v >= c.NumToRs+c.NumAgg {
				tier = 2
			} else if v >= c.NumToRs {
				tier = 1
			}
			if down != want[tier] {
				t.Fatalf("k=%d F=%d node %d: %d down ports, want %d", kf[0], kf[1], v, down, want[tier])
			}
		}
	}
}

// Shortest paths over the switch graph are up/down routing's ToR-to-ToR
// hop counts, which Figure 4 plots.
func TestFoldedClosToRPathStats(t *testing.T) {
	c := MustNewFoldedClos(12, 3)
	tors := make([]int, c.NumToRs)
	for i := range tors {
		tors[i] = i
	}
	var bfs graph.BitBFS
	ps := bfs.PathStats(c.RackGraph(), tors)
	// 72 ToRs: per ToR, 5 intra-pod (2 hops) and 66 inter-pod (4 hops).
	if !slices.Equal(ps.Hist, []int{0, 0, 72 * 5, 0, 72 * 66}) {
		t.Fatalf("hist = %v", ps.Hist)
	}
	if ps.Pairs != 72*71 {
		t.Fatalf("pairs = %d", ps.Pairs)
	}
}

func TestRotorNetPaperBaseline(t *testing.T) {
	// Non-hybrid: 6 rotor switches, 108 racks → 18 slots, 1.8 ms cycle.
	r := mustRotorNet(t, Config{NumRacks: 108, HostsPerRack: 6, NumSwitches: 6, Seed: 1})
	if r.SlicesPerCycle() != 18 {
		t.Fatalf("slots = %d, want 18", r.SlicesPerCycle())
	}
	if r.CycleTime() != 1800*eventsim.Microsecond {
		t.Fatalf("cycle = %v, want 1.8ms", r.CycleTime())
	}
	if r.Uplinks() != 6 || r.cfg.GroupSize != 1 {
		t.Fatalf("switches = %d group size = %d", r.Uplinks(), r.cfg.GroupSize)
	}
}

func TestRotorNetHybrid(t *testing.T) {
	// The hybrid variant gives one of 6 uplinks to its packet network.
	r := mustRotorNet(t, Config{NumRacks: 108, HostsPerRack: 6, NumSwitches: 5, Seed: 1})
	if r.Uplinks() != 5 {
		t.Fatalf("hybrid switches = %d, want 5", r.Uplinks())
	}
	// 108/5 → 22 slots with padding.
	if r.SlicesPerCycle() != 22 {
		t.Fatalf("slots = %d, want 22", r.SlicesPerCycle())
	}
}

func TestRotorNetFullConnectivityPerCycle(t *testing.T) {
	r := mustRotorNet(t, Config{NumRacks: 32, HostsPerRack: 4, NumSwitches: 4, Seed: 2})
	n := r.NumRacks()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			found := false
			for s := 0; s < r.SlicesPerCycle() && !found; s++ {
				found = r.DirectSwitchInstalled(s, a, b) >= 0
			}
			if !found {
				t.Fatalf("pair (%d,%d) never connected in a RotorNet cycle", a, b)
			}
		}
	}
	if r.DirectSwitchInstalled(0, 3, 3) != -1 {
		t.Fatal("self-pair connected")
	}
}

func TestRotorNetBulkWindowAndDuty(t *testing.T) {
	r := mustRotorNet(t, Config{
		NumRacks: 16, HostsPerRack: 2, NumSwitches: 4,
		GuardBand: 1 * eventsim.Microsecond,
		Seed:      1,
	})
	s, e := r.BulkWindow(0, 0)
	if s != 1*eventsim.Microsecond || e != 89*eventsim.Microsecond {
		t.Fatalf("window = [%v, %v]", s, e)
	}
}

// NewRotorNet rejects what Opera's build would too, and every setting that
// shapes only a staggered schedule rather than ignoring it.
func TestRotorNetErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"odd racks", Config{NumRacks: 7, HostsPerRack: 1, NumSwitches: 2}},
		{"no switches", Config{NumRacks: 8, HostsPerRack: 1}},
		{"zero hosts", Config{NumRacks: 8, HostsPerRack: 0, NumSwitches: 2}},
		{"stagger groups", Config{NumRacks: 8, HostsPerRack: 1, NumSwitches: 2, GroupSize: 2}},
		{"diameter bound", Config{NumRacks: 8, HostsPerRack: 1, NumSwitches: 2, MaxDiameter: 3}},
	} {
		if _, err := NewRotorNet(tc.cfg); err == nil {
			t.Errorf("%s accepted: %+v", tc.name, tc.cfg)
		}
	}
	if _, err := NewRotorNet(Config{NumRacks: 8, HostsPerRack: 1, NumSwitches: 2, GroupSize: 1}); err != nil {
		t.Fatalf("GroupSize 1 is the unison schedule itself: %v", err)
	}
}

func TestRotorNetSlotAt(t *testing.T) {
	r := mustRotorNet(t, Config{NumRacks: 16, HostsPerRack: 2, NumSwitches: 4, Seed: 1})
	d := r.SliceDuration()
	slot, abs, off := r.SliceAt(d*5 + 7)
	if slot != 1 || abs != 5 || off != 7 {
		t.Fatalf("SliceAt = %d,%d,%v (slots=%d)", slot, abs, off, r.SlicesPerCycle())
	}
}
