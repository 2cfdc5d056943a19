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
	eng     *eventsim.Engine
	cfg     *Config
	topo    *topology.Expander
	tables  *routing.Tables
	hosts   []*Host
	tors    []*ExpanderToR
	metrics *Metrics
	faults  *Faults // lazily created; see expander_faults.go
	// faultSeed seeds deterministic gray-failure (lossy-link) draws.
	faultSeed int64
}

func init() {
	Register("expander", func(p BuildParams) (Network, error) {
		topo, err := topology.NewExpander(p.Racks, p.HostsPerRack, p.Uplinks, p.Seed)
		if err != nil {
			return nil, err
		}
		return NewExpanderNet(p.Engine, p.Sim, topo, p.Seed+1), nil
	})
}

// NewExpanderNet wires the expander fabric.
func NewExpanderNet(eng *eventsim.Engine, cfg Config, topo *topology.Expander, seed int64) *ExpanderNet {
	n := &ExpanderNet{
		eng:       eng,
		cfg:       &cfg,
		topo:      topo,
		tables:    routing.MustBuild(routing.ExpanderPortMap(topo)),
		metrics:   NewMetrics(),
		faultSeed: seed,
	}
	n.hosts = make([]*Host, topo.NumHosts())
	n.tors = make([]*ExpanderToR, topo.NumRacks)
	for r := 0; r < topo.NumRacks; r++ {
		n.tors[r] = &ExpanderToR{
			net:  n,
			rack: int32(r),
			rng:  rand.New(rand.NewSource(seed + int64(r) + 1)),
		}
	}
	d := topo.HostsPerRack
	for h := range n.hosts {
		host := NewHost(eng, n.cfg, int32(h), int32(h/d))
		n.hosts[h] = host
		host.SetNIC(NewPort(eng, n.cfg, fmt.Sprintf("host%d->tor%d", h, host.Rack), n.tors[host.Rack]))
	}
	for r := 0; r < topo.NumRacks; r++ {
		tor := n.tors[r]
		tor.down = make([]*Port, d)
		for i := 0; i < d; i++ {
			host := n.hosts[r*d+i]
			tor.down[i] = NewPort(eng, n.cfg, fmt.Sprintf("tor%d->host%d", r, host.ID), host)
		}
		neighbors := topo.G.Neighbors(r)
		tor.up = make([]*Port, len(neighbors))
		for i, nb := range neighbors {
			tor.up[i] = NewPort(eng, n.cfg, fmt.Sprintf("tor%d->tor%d", r, nb), n.tors[nb])
		}
	}
	return n
}

// Engine returns the simulation engine.
func (n *ExpanderNet) Engine() *eventsim.Engine { return n.eng }

// Kind implements Network.
func (n *ExpanderNet) Kind() string { return "expander" }

// PacketCapable implements Network: the expander is all packet switching.
func (n *ExpanderNet) PacketCapable() bool { return true }

// NumRacks implements Network.
func (n *ExpanderNet) NumRacks() int { return n.topo.NumRacks }

// HostsPerRack implements Network.
func (n *ExpanderNet) HostsPerRack() int { return n.topo.HostsPerRack }

// Start implements Network; a static fabric has no circuit clock.
func (n *ExpanderNet) Start() {}

// Stop implements Network.
func (n *ExpanderNet) Stop() {}

// Config returns the physical constants.
func (n *ExpanderNet) Config() *Config { return n.cfg }

// Metrics returns the metrics collector.
func (n *ExpanderNet) Metrics() *Metrics { return n.metrics }

// Hosts returns all hosts.
func (n *ExpanderNet) Hosts() []*Host { return n.hosts }

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
		d := len(t.down)
		idx := int(p.DstHost) - int(t.rack)*d
		if idx < 0 || idx >= d {
			p.Release()
			return
		}
		t.down[idx].Enqueue(p)
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
