package sim

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/topology"
)

// ClosNet assembles the M:1-oversubscribed three-tier folded-Clos baseline
// with NDP transport and per-packet ECMP spraying: packets travel
// host → ToR → (random pod agg) → (random core) → agg → ToR → host, with
// the downward path determined by the destination.
type ClosNet struct {
	edge
	topo *topology.FoldedClos
	sw   []*closSwitch // one per node of topo.RackGraph(): ToRs, then aggs, then cores
}

func buildClos(p BuildParams) (Network, error) {
	topo, err := topology.NewFoldedClos(p.ClosK, p.ClosF)
	if err != nil {
		return nil, err
	}
	return NewClosNet(p.Engine, p.Sim, topo, p.Seed+1), nil
}

// NewClosNet wires the folded-Clos fabric: one switch per node of
// topo.RackGraph(), port k of switch v to the row's k-th neighbour. seed
// drives per-switch packet spraying and gray-failure draws.
func NewClosNet(eng *eventsim.Engine, cfg Config, topo *topology.FoldedClos, seed int64) *ClosNet {
	n := &ClosNet{edge: newEdge(eng, cfg, "foldedclos", topo.NumToRs, topo.HostsPerToR), topo: topo}
	g := topo.RackGraph()
	n.sw = make([]*closSwitch, len(g))
	for v := range n.sw {
		n.sw[v] = &closSwitch{net: n, id: int32(v)}
	}
	n.wireHosts(func(rack int) Node { return n.sw[rack] })
	for v, row := range g {
		s := n.sw[v]
		s.ports = make([]*Port, len(row))
		for k, w := range row {
			if int(w) < v {
				s.down++
			}
			s.ports[k] = NewPort(eng, n.cfg, n.name(v)+"->"+n.name(int(w)), n.sw[w])
		}
		s.downSlot = make([]int32, s.down)
		if v < n.racks {
			s.hosts = n.downlinks(v)
			s.lo, s.racks = int32(v), 1
			s.rng = rand.New(rand.NewSource(seed + int64(v) + 1))
			continue
		}
		// Lower nodes are wired first, and a row's down neighbours sit side
		// by side over the racks.
		first := n.sw[row[0]]
		s.lo, s.sub = first.lo, first.racks
		s.racks = s.sub * int32(s.down)
		if s.down < len(row) {
			s.rng = rand.New(rand.NewSource(seed + 10_000 + int64(v-n.racks)))
		}
	}
	n.faults = newFaults(eng, seed, n.faultMap(g))
	// Cable ci is the ci-th edge graph.Edges visits, and a switch's uplink
	// cables take consecutive usable-table slots.
	ci := 0
	graph.Edges(g, func(v, k, w, rev int) {
		slot := n.faults.m.cables[ci].slots[0]
		ci++
		if s := n.sw[v]; k == s.down {
			s.up = n.faults.usable[slot : int(slot)+len(s.ports)-s.down]
		}
		n.sw[w].downSlot[rev] = slot
	})
	return n
}

// tier places node v of the rack graph: its Clos tier (ClosTierToR,
// ClosTierAgg or ClosTierCore) and its index on that tier.
func (n *ClosNet) tier(v int) (tier, i int) {
	if v < n.topo.NumToRs {
		return ClosTierToR, v
	}
	if v -= n.topo.NumToRs; v < n.topo.NumAgg {
		return ClosTierAgg, v
	}
	return ClosTierCore, v - n.topo.NumAgg
}

// name is node v's port-name stem: tor3, agg5, core2.
func (n *ClosNet) name(v int) string {
	tier, i := n.tier(v)
	return fmt.Sprintf("%s%d", [...]string{ClosTierToR: "tor", ClosTierAgg: "agg", ClosTierCore: "core"}[tier], i)
}

// PacketCapable implements Network: the Clos is all packet switching.
func (n *ClosNet) PacketCapable() bool { return true }

// Start implements Network; a static fabric has no circuit clock.
func (n *ClosNet) Start() {}

// Stop implements Network.
func (n *ClosNet) Stop() {}

// Topology returns the Clos dimensions.
func (n *ClosNet) Topology() *topology.FoldedClos { return n.topo }

// closSwitch is one switch of the folded Clos — a ToR, an agg or a core,
// node id of topology.FoldedClos.RackGraph. Port k reaches the row's k-th
// neighbour: the first down ports lead to lower-numbered nodes, below the
// switch, and the rest are uplinks.
type closSwitch struct {
	net   *ClosNet
	id    int32
	ports []*Port
	down  int
	hosts []*Port // a ToR's ports to its rack's hosts; nil above the ToRs
	// The racks below the switch are [lo, lo+racks), sub of them under
	// each down port.
	lo, racks, sub int32
	up             []bool  // the uplinks' run of the usable table
	downSlot       []int32 // each down cable's usable-table slot
	rng            *rand.Rand
}

// Receive implements Node: down the one port toward a destination below
// the switch — its own rack, its own pod, or the destination's pod — else
// sprayed over the live uplinks. A dead switch forwards nothing, rack-local
// traffic included; the deterministic downward hop drops the packet at a
// dead cable (NDP retransmits).
func (s *closSwitch) Receive(p *Packet, _ *Port) {
	f := s.net.faults
	if f.nodeDown[s.id] {
		f.lose(p)
		return
	}
	if d := p.DstRack - s.lo; d >= 0 && d < s.racks {
		if s.hosts != nil {
			deliverLocal(s.hosts, s.id, p)
			return
		}
		k := d / s.sub
		if !f.usable[s.downSlot[k]] {
			f.lose(p)
			return
		}
		s.ports[k].Enqueue(p)
		return
	}
	i := sprayLive(s.up, s.rng)
	if i < 0 {
		f.lose(p)
		return
	}
	if s.hosts != nil {
		p.Hops++ // one per ToR-to-ToR traversal: counted leaving the source ToR
	}
	s.ports[s.down+i].Enqueue(p)
}

// sprayLive picks one live uplink uniformly: usable is a switch's run of
// the usable table, one entry per uplink, and the result indexes it, -1
// when nothing is live. It draws once, Intn(live) — while every cable is
// up, the Intn(len(usable)) of a fault-unaware spray, so an idle fault
// table changes no packet's path.
func sprayLive(usable []bool, rng *rand.Rand) int {
	live := 0
	for _, up := range usable {
		if up {
			live++
		}
	}
	if live == 0 {
		return -1
	}
	k := rng.Intn(live)
	if live == len(usable) {
		return k // nothing down, the usual case: the k-th live entry is entry k
	}
	for i, up := range usable {
		if up {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("sim: sprayLive walked past its live count")
}
