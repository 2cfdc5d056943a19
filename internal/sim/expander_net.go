package sim

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/routing"
	"github.com/opera-net/opera/internal/topology"
)

// ExpanderNet assembles the static expander baseline (§2.3): ToRs wired
// directly to u peer ToRs over a random regular graph, NDP for all traffic,
// per-packet spraying across equal-cost shortest paths.
type ExpanderNet struct {
	edge
	topo   *topology.Expander
	tables *routing.Tables
	// recovery is tables once a fault has fired: the surviving topology's
	// routes, rebuilt in place after every state change (expander_faults.go).
	recovery *routing.Tables
	tors     []*ExpanderToR
}

func buildExpander(p BuildParams) (Network, error) {
	topo, err := topology.NewExpander(p.Racks, p.HostsPerRack, p.Uplinks, p.Seed)
	if err != nil {
		return nil, err
	}
	return NewExpanderNet(p.Engine, p.Sim, topo, p.Seed+1), nil
}

// NewExpanderNet wires the expander fabric. seed drives per-ToR packet
// spraying and gray-failure draws.
func NewExpanderNet(eng *eventsim.Engine, cfg Config, topo *topology.Expander, seed int64) *ExpanderNet {
	n := &ExpanderNet{
		edge:   newEdge(eng, cfg, "expander", topo.NumRacks, topo.HostsPerRack),
		topo:   topo,
		tables: routing.MustBuild(routing.ExpanderPortMap(topo)),
	}
	n.tors = make([]*ExpanderToR, topo.NumRacks)
	for r := range n.tors {
		n.tors[r] = &ExpanderToR{
			net:  n,
			rack: int32(r),
			rng:  rand.New(rand.NewSource(seed + int64(r) + 1)),
		}
	}
	n.wireHosts(func(rack int) Node { return n.tors[rack] })
	for r, tor := range n.tors {
		tor.down = n.downlinks(r)
		neighbors := topo.G.Neighbors(r)
		tor.up = make([]*Port, len(neighbors))
		for i, nb := range neighbors {
			tor.up[i] = NewPort(eng, n.cfg, fmt.Sprintf("tor%d->tor%d", r, nb), n.tors[nb])
		}
	}
	n.faults = newFaults(eng, seed, n.faultMap())
	return n
}

// PacketCapable implements Network: the expander is all packet switching.
func (n *ExpanderNet) PacketCapable() bool { return true }

// Start implements Network; a static fabric has no circuit clock.
func (n *ExpanderNet) Start() {}

// Stop implements Network.
func (n *ExpanderNet) Stop() {}

// Topology returns the expander topology.
func (n *ExpanderNet) Topology() *topology.Expander { return n.topo }

// ExpanderToR forwards packets along shortest expander paths, spraying
// across equal-cost next hops per packet.
type ExpanderToR struct {
	net  *ExpanderNet
	rack int32
	up   []*Port // indexed like the topology's neighbor list
	down []*Port
	rng  *rand.Rand
}

// Receive implements Node.
func (t *ExpanderToR) Receive(p *Packet, _ *Port) {
	n := t.net
	if p.DstRack == t.rack {
		deliverLocal(t.down, t.rack, p)
		return
	}
	uplink := n.tables.PickUplink(0, int(t.rack), int(p.DstRack), t.rng.Uint32())
	if uplink < 0 {
		p.Release()
		return
	}
	p.Hops++
	t.up[uplink].Enqueue(p)
}
