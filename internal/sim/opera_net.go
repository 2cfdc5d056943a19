package sim

import (
	"math/rand"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/routing"
	"github.com/opera-net/opera/internal/topology"
)

// OperaNet assembles a full Opera fabric: the rotor circuit plane run on
// Opera's staggered schedule, plus what makes it Opera — the
// non-transitioning matchings of every slice form an expander, and
// low-latency packets are sprayed along its per-slice routing tables.
type OperaNet struct {
	rotorFabric
	topo   *topology.Opera
	tables *routing.Tables
	rngs   []*rand.Rand // per-ToR packet spraying

	// epidemic is the §3.6.2 hello-protocol state (failures.go), inert
	// until the fault injector first reports a state change.
	epidemic *helloEpidemic
}

func buildOpera(p BuildParams) (Network, error) {
	topo, err := topology.NewOpera(topology.Config{
		NumRacks:     p.Racks,
		HostsPerRack: p.HostsPerRack,
		NumSwitches:  p.Uplinks,
		Seed:         p.Seed,
		MaxDiameter:  p.MaxSliceDiameter,
	})
	if err != nil {
		return nil, err
	}
	return NewOperaNet(p.Engine, p.Sim, topo, p.Seed+1), nil
}

// NewOperaNet wires an Opera network over the given topology. seed drives
// per-ToR packet spraying and gray-failure draws.
func NewOperaNet(eng *eventsim.Engine, cfg Config, topo *topology.Opera, seed int64) *OperaNet {
	n := &OperaNet{
		topo:   topo,
		tables: routing.MustBuild(routing.OperaPortMaps(topo)),
		rngs:   make([]*rand.Rand, topo.NumRacks()),
	}
	for r := range n.rngs {
		n.rngs[r] = rand.New(rand.NewSource(seed + int64(r) + 1))
	}
	n.epidemic = &helloEpidemic{net: n, informed: make([]bool, topo.NumRacks())}
	n.forward, n.react, n.spread = n.sprayPacket, n.epidemic.react, n.epidemic.spread
	n.assemble(eng, cfg, "opera", topo, seed)
	return n
}

// PacketCapable implements Network: the non-transitioning rotor matchings
// form an expander carrying packet-switched low-latency traffic (§3.2).
func (n *OperaNet) PacketCapable() bool { return true }

// Topology returns the underlying Opera topology.
func (n *OperaNet) Topology() *topology.Opera { return n.topo }

// DirectReachable implements CircuitNetwork: each pair appears in exactly
// one switch's matchings, so the pair is severed iff that circuit is.
func (n *OperaNet) DirectReachable(rack, dst int) bool {
	sw := n.topo.PairSwitch(rack, dst) // -1 for rack == dst
	return sw >= 0 && n.circuitUp(rack, dst, sw)
}

// sprayPacket is Opera's packet path: control and low-latency packets
// follow the tagged slice's expander paths, sprayed per packet (§4.3).
func (n *OperaNet) sprayPacket(t *RotorToR, p *Packet) {
	// Stamp the configuration tag at the first ToR (§4.3); refresh a stale
	// tag (older than the previous slice) so lookups stay meaningful.
	cur := n.curSlice
	if p.SliceTag < 0 || cur-p.SliceTag > 1 {
		p.SliceTag = cur
	}
	slices := int64(n.topo.SlicesPerCycle())
	sc := int(p.SliceTag % slices)
	tables := n.epidemic.tablesFor(int(t.rack))
	rng := n.rngs[t.rack]
	uplink := tables.PickUplink(sc, int(t.rack), int(p.DstRack), rng.Uint32())
	if uplink < 0 {
		// Unreachable under this slice's tables (can only happen with
		// failures); retry against the current slice before giving up.
		p.SliceTag = cur
		uplink = tables.PickUplink(int(cur%slices), int(t.rack), int(p.DstRack), rng.Uint32())
		if uplink < 0 {
			p.Release()
			return
		}
	}
	p.Hops++
	t.up[uplink].Enqueue(p)
}
