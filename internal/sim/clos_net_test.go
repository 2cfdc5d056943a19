package sim

import (
	"math/rand"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/topology"
)

// TestClosPortsFollowRackGraph pins that the simulated Clos is wired by
// topology.FoldedClos.RackGraph and nothing else: port k of every switch v
// delivers to switch RackGraph()[v][k], the down ports split the racks
// below v evenly and in port order, a switch without uplinks has every
// rack below it, and ports keep their names.
func TestClosPortsFollowRackGraph(t *testing.T) {
	for _, kf := range [][2]int{{8, 3}, {12, 3}, {8, 1}} {
		topo := topology.MustNewFoldedClos(kf[0], kf[1])
		n := NewClosNet(eventsim.New(), DefaultConfig(), topo, 1)
		g := topo.RackGraph()
		if len(n.sw) != len(g) {
			t.Fatalf("k=%d F=%d: %d switches, rack graph has %d nodes", kf[0], kf[1], len(n.sw), len(g))
		}
		for v, s := range n.sw {
			if len(s.ports) != len(g[v]) {
				t.Fatalf("k=%d F=%d switch %d: %d ports, rack graph row %v", kf[0], kf[1], v, len(s.ports), g[v])
			}
			if s.down == len(s.ports) && v >= topo.NumToRs && (s.lo != 0 || int(s.racks) != topo.NumToRs) {
				t.Fatalf("k=%d F=%d switch %d has no uplinks but racks [%d,+%d) below", kf[0], kf[1], v, s.lo, s.racks)
			}
			for k, pt := range s.ports {
				w := int(g[v][k])
				if got := pt.resolve(0); got != Node(n.sw[w]) {
					t.Fatalf("k=%d F=%d switch %d port %d reaches %v, want switch %d", kf[0], kf[1], v, k, got, w)
				}
				if k < s.down {
					if below := n.sw[w]; below.lo != s.lo+int32(k)*s.sub || below.racks != s.sub {
						t.Fatalf("k=%d F=%d switch %d down port %d: racks [%d,+%d), want [%d,+%d)",
							kf[0], kf[1], v, k, below.lo, below.racks, s.lo+int32(k)*s.sub, s.sub)
					}
				}
			}
		}
	}
	// The names diagnostics and traces have always printed, at k=8 F=3
	// (32 ToRs, 16 aggs, 8 cores).
	n := NewClosNet(eventsim.New(), DefaultConfig(), topology.MustNewFoldedClos(8, 3), 1)
	for _, c := range []struct {
		v, k int
		name string
	}{{0, 0, "tor0->agg0"}, {31, 1, "tor31->agg15"}, {32, 3, "agg0->tor3"}, {32, 4, "agg0->core0"}, {55, 0, "core7->agg1"}} {
		if got := n.sw[c.v].ports[c.k].Name(); got != c.name {
			t.Fatalf("switch %d port %d is %q, want %q", c.v, c.k, got, c.name)
		}
	}
}

// sprayLive against its contract: one Intn(live) draw selecting the k-th
// live entry. With every cable up that is Intn(len) — the index the
// fault-unaware spray used to draw from the same generator state — with
// cables down it never lands on a dead one, and with none live it returns
// -1 without drawing.
func TestSprayLive(t *testing.T) {
	cases := []struct {
		name   string
		usable []bool
		live   []int // indices of the live entries, ascending
	}{
		{"all-up", []bool{true, true, true, true}, []int{0, 1, 2, 3}},
		{"one-up", []bool{true}, []int{0}},
		{"first-down", []bool{false, true, true, true}, []int{1, 2, 3}},
		{"holes", []bool{true, false, false, true, false, true}, []int{0, 3, 5}},
		{"last-only", []bool{false, false, true}, []int{2}},
		{"none", []bool{false, false}, nil},
		{"empty", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ref := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			for i := 0; i < 200; i++ {
				want := -1
				if len(tc.live) > 0 {
					want = tc.live[ref.Intn(len(tc.live))]
				}
				if idx := sprayLive(tc.usable, got); idx != want {
					t.Fatalf("draw %d: index %d, want %d", i, idx, want)
				}
			}
			if got.Int63() != ref.Int63() {
				t.Fatal("sprayLive consumed a different number of draws than one Intn(live) per call")
			}
		})
	}
}
