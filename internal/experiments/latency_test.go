package experiments

import (
	"fmt"
	"testing"

	"github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// TestUnloadedLatencyIsPathLength is the latency identity: on an idle
// fabric a one-packet flow crosses exactly its slice's shortest path. On
// every fabric with a packet path, one 1000 B flow per (source rack,
// destination rack, slice) starts mid-slice, alone in the network, and its
// FCT must equal (d + 2) × (ser + prop): d ToR-to-ToR hops plus the two
// host links, each a store-and-forward of one serialisation and one
// propagation delay, where d is the BitBFS distance in the graph Figure 4
// analyses for that slice. Opera's hop histogram must then be Figure 4's
// path-length counts. Any routing, slice-tagging or port change that adds
// a hop or a nanosecond fails here with the pair and the slice.
//
// Non-hybrid RotorNet is left out: it has no packet path, and a short
// flow waits for its circuit.
func TestUnloadedLatencyIsPathLength(t *testing.T) {
	const bytes = 1000
	// gap separates flows by far more than a packet and its ACK take, and
	// is Opera's slice duration, so flow i starts in the middle of slice i.
	const gap = 100 * eventsim.Microsecond
	for _, kind := range []opera.Kind{opera.KindOpera, opera.KindExpander, opera.KindFoldedClos, opera.KindRotorNetHybrid} {
		t.Run(kind.String(), func(t *testing.T) {
			cl, err := opera.New(kind, opera.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Stop()
			if o := cl.OperaNet(); o != nil && o.Topology().SliceDuration() != gap {
				t.Fatalf("slice duration %v, want the probe gap %v", o.Topology().SliceDuration(), gap)
			}
			racks := cl.NumHosts() / cl.HostsPerRack()
			slices, dist := sliceDistances(t, cl, racks)
			cfg := cl.Network().Config()
			hop := cfg.SerializationDelay(bytes) + cfg.PropDelay

			// Probe i starts in the middle of absolute slice i, whose index
			// within the cycle is i mod slices: every pair once per slice.
			type probe struct {
				src, dst, slice int
				flow            *sim.Flow
			}
			var order []probe
			for src := 0; src < racks; src++ {
				for dst := 0; dst < racks; dst++ {
					for s := 0; s < slices && src != dst; s++ {
						order = append(order, probe{src: src, dst: dst, slice: s})
					}
				}
			}
			hpr := cl.HostsPerRack()
			for i := range order {
				p := &order[i]
				p.flow = cl.AddFlow(workload.FlowSpec{
					Src:     p.src*hpr + i%hpr,
					Dst:     p.dst*hpr + (i/hpr)%hpr,
					Bytes:   bytes,
					Arrival: eventsim.Time(i)*gap + gap/2,
				})
			}
			if !cl.RunUntilDone(eventsim.Time(len(order)+1) * gap) {
				t.Fatal("probes did not all finish")
			}

			var hist []int
			for _, p := range order {
				d := dist[p.slice][p.src][p.dst]
				if want := eventsim.Time(d+2) * hop; p.flow.FCT() != want {
					t.Fatalf("racks %d→%d, slice %d: FCT %v, want (%d + 2) × %v = %v",
						p.src, p.dst, p.slice, p.flow.FCT(), d, hop, want)
				}
				for len(hist) <= d {
					hist = append(hist, 0)
				}
				hist[d]++
			}
			if kind == opera.KindOpera {
				want := cl.OperaNet().Topology().PathStats()
				if fmt.Sprint(hist[1:]) != fmt.Sprint(want.Hist[1:]) {
					t.Fatalf("hop histogram %v, Figure 4's counts %v", hist[1:], want.Hist[1:])
				}
			}
			t.Logf("%d probes, %v per hop, hop histogram %v", len(order), hop, hist[1:])
		})
	}
}

// sliceDistances returns the number of slices the cluster's packet path
// cycles through and dist[slice][src][dst], the BitBFS hop count between
// racks in each slice's graph: Opera's per-slice expander, the static
// expander's, the folded Clos's switch graph (ToRs first) and, for hybrid
// RotorNet, the star its one packet switch makes.
func sliceDistances(t *testing.T, cl *opera.Cluster, racks int) (int, [][][]int) {
	t.Helper()
	var bfs graph.BitBFS
	switch n := cl.Network().(type) {
	case *sim.OperaNet:
		o := n.Topology()
		peers := graph.NewTable(racks, o.Uplinks())
		dist := make([][][]int, o.SlicesPerCycle())
		for s := range dist {
			o.SlicePeers(s, peers)
			dist[s] = bfs.Distances(peers)
		}
		return len(dist), dist
	case *sim.ExpanderNet:
		return 1, [][][]int{bfs.Distances(n.Topology().Adj)}
	case *sim.ClosNet:
		return 1, [][][]int{bfs.Distances(n.Topology().RackGraph())}
	case *sim.RotorNetSim:
		star := make([][]int32, racks+1)
		for r := 0; r < racks; r++ {
			star[r] = []int32{int32(racks)}
			star[racks] = append(star[racks], int32(r))
		}
		return 1, [][][]int{bfs.Distances(star)}
	}
	t.Fatalf("no slice graph for %T", cl.Network())
	return 0, nil
}
