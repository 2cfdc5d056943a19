package topology

import (
	"math/rand"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/graph"
)

func TestExpanderPaperBaseline(t *testing.T) {
	// §5: 650-host u=7 expander on k=12 ToRs (d=5 hosts each, 130 racks).
	e := MustNewExpander(130, 5, 7, 1)
	if e.NumHosts() != 650 {
		t.Fatalf("hosts = %d, want 650", e.NumHosts())
	}
	for v := 0; v < e.NumRacks; v++ {
		if d := e.G.Degree(v); d != 7 {
			t.Fatalf("rack %d degree %d, want 7", v, d)
		}
	}
	if !e.G.Connected() {
		t.Fatal("expander disconnected")
	}
	ps := e.G.AllPairs()
	if ps.Avg() < 2 || ps.Avg() > 3.2 {
		t.Fatalf("avg path = %v, want ~2.5", ps.Avg())
	}
	if e.HostRack(12) != 2 {
		t.Fatalf("HostRack wrong")
	}
}

func TestExpanderSpectralQuality(t *testing.T) {
	// A random 7-regular graph should be near-Ramanujan: gap within ~60%
	// of 7 - 2*sqrt(6) ≈ 2.1 (random regular graphs are almost Ramanujan).
	e := MustNewExpander(130, 5, 7, 2)
	rng := rand.New(rand.NewSource(1))
	gap := e.G.SpectralGap(600, rng)
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
		na, nb := a.G.Neighbors(v), b.G.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatal("same seed, different graphs")
		}
	}
}

func TestFoldedClosPaperBaseline(t *testing.T) {
	// §5: 648-host 3:1 folded Clos on k=12 switches.
	c := MustNewFoldedClos(12, 3)
	if c.NumHosts() != 648 {
		t.Fatalf("hosts = %d, want 648", c.NumHosts())
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
	if c.NumHosts() != 5184 {
		t.Fatalf("hosts = %d, want 5184", c.NumHosts())
	}
}

func TestFoldedClosFullyProvisioned(t *testing.T) {
	c := MustNewFoldedClos(8, 1)
	// F=1: d=u=4; H = 2·64 = 128.
	if c.NumHosts() != 128 {
		t.Fatalf("hosts = %d, want 128", c.NumHosts())
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
	g := c.RackGraph()
	if !g.Connected() {
		t.Fatal("Clos rack graph disconnected")
	}
	// Every ToR reaches every other ToR in ≤ 4 switch-graph hops
	// (ToR-agg-core-agg-ToR).
	dist := g.BFS(0)
	for v := 1; v < c.NumToRs; v++ {
		if dist[v] > 4 {
			t.Fatalf("ToR 0 to ToR %d distance %d > 4", v, dist[v])
		}
	}
	// Core switch radix check: each core has exactly NumPods edges... each
	// core connects once per pod.
	coreBase := c.NumToRs + c.NumAgg
	for core := coreBase; core < coreBase+c.NumCore; core++ {
		if d := g.Degree(core); d != c.NumPods {
			t.Fatalf("core %d degree %d, want %d", core, d, c.NumPods)
		}
	}
}

func TestFoldedClosToRPathStats(t *testing.T) {
	c := MustNewFoldedClos(12, 3)
	ps := c.ToRPathStats()
	// 72 ToRs: per ToR, 5 intra-pod (2 hops) and 66 inter-pod (4 hops).
	if ps.Hist[2] != 72*5 || ps.Hist[4] != 72*66 {
		t.Fatalf("hist = %v", ps.Hist)
	}
	if ps.Pairs != 72*71 {
		t.Fatalf("pairs = %d", ps.Pairs)
	}
}

func TestRotorNetPaperBaseline(t *testing.T) {
	// Non-hybrid: 6 rotor switches, 108 racks → 18 slots, 1.8 ms cycle.
	r := MustNewRotorNet(RotorConfig{NumRacks: 108, HostsPerRack: 6, Uplinks: 6, Seed: 1})
	if r.SlicesPerCycle() != 18 {
		t.Fatalf("slots = %d, want 18", r.SlicesPerCycle())
	}
	if r.CycleTime() != 1800*eventsim.Microsecond {
		t.Fatalf("cycle = %v, want 1.8ms", r.CycleTime())
	}
	if r.Uplinks() != 6 || r.Hybrid() {
		t.Fatalf("switches = %d hybrid=%v", r.Uplinks(), r.Hybrid())
	}
}

func TestRotorNetHybrid(t *testing.T) {
	r := MustNewRotorNet(RotorConfig{NumRacks: 108, HostsPerRack: 6, Uplinks: 6, Hybrid: true, Seed: 1})
	if r.Uplinks() != 5 {
		t.Fatalf("hybrid switches = %d, want 5", r.Uplinks())
	}
	// 108/5 → 22 slots with padding.
	if r.SlicesPerCycle() != 22 {
		t.Fatalf("slots = %d, want 22", r.SlicesPerCycle())
	}
}

func TestRotorNetFullConnectivityPerCycle(t *testing.T) {
	r := MustNewRotorNet(RotorConfig{NumRacks: 32, HostsPerRack: 4, Uplinks: 4, Seed: 2})
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
	r := MustNewRotorNet(RotorConfig{
		NumRacks: 16, HostsPerRack: 2, Uplinks: 4,
		GuardBand: 1 * eventsim.Microsecond,
		Seed:      1,
	})
	s, e := r.BulkWindow(0, 0)
	if s != 1*eventsim.Microsecond || e != 89*eventsim.Microsecond {
		t.Fatalf("window = [%v, %v]", s, e)
	}
	if d := r.DutyCycle(); d < 0.87 || d > 0.89 {
		t.Fatalf("duty = %v, want 0.88", d)
	}
}

func TestRotorNetErrors(t *testing.T) {
	if _, err := NewRotorNet(RotorConfig{NumRacks: 7, HostsPerRack: 1, Uplinks: 2}); err == nil {
		t.Fatal("odd racks accepted")
	}
	if _, err := NewRotorNet(RotorConfig{NumRacks: 8, HostsPerRack: 1, Uplinks: 1, Hybrid: true}); err == nil {
		t.Fatal("hybrid with one uplink accepted")
	}
	if _, err := NewRotorNet(RotorConfig{NumRacks: 8, HostsPerRack: 0, Uplinks: 2}); err == nil {
		t.Fatal("zero hosts accepted")
	}
}

func TestRotorNetSlotAt(t *testing.T) {
	r := MustNewRotorNet(RotorConfig{NumRacks: 16, HostsPerRack: 2, Uplinks: 4, Seed: 1})
	d := r.SliceDuration()
	slot, abs, off := r.SliceAt(d*5 + 7)
	if slot != 1 || abs != 5 || off != 7 {
		t.Fatalf("SliceAt = %d,%d,%v (slots=%d)", slot, abs, off, r.SlicesPerCycle())
	}
}
