package sim

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/topology"
)

// ClosNet assembles the M:1-oversubscribed three-tier folded-Clos baseline
// with NDP transport and per-packet ECMP spraying: packets travel
// host → ToR → (random pod agg) → (random core) → agg → ToR → host, with
// the downward path determined by the destination.
type ClosNet struct {
	edge
	topo  *topology.FoldedClos
	tors  []*ClosToR
	aggs  []*ClosAgg
	cores []*ClosCore
}

func buildClos(p BuildParams) (Network, error) {
	topo, err := topology.NewFoldedClos(p.ClosK, p.ClosF)
	if err != nil {
		return nil, err
	}
	return NewClosNet(p.Engine, p.Sim, topo, p.Seed+1), nil
}

// NewClosNet wires the folded-Clos fabric. seed drives per-switch packet
// spraying and gray-failure draws.
func NewClosNet(eng *eventsim.Engine, cfg Config, topo *topology.FoldedClos, seed int64) *ClosNet {
	n := &ClosNet{edge: newEdge(eng, cfg, "foldedclos", topo.NumToRs, topo.HostsPerToR), topo: topo}
	n.tors = make([]*ClosToR, topo.NumToRs)
	n.aggs = make([]*ClosAgg, topo.NumAgg)
	n.cores = make([]*ClosCore, topo.NumCore)

	for i := range n.tors {
		n.tors[i] = &ClosToR{net: n, id: int32(i), rng: rand.New(rand.NewSource(seed + int64(i) + 1))}
	}
	for i := range n.aggs {
		n.aggs[i] = &ClosAgg{net: n, id: int32(i), rng: rand.New(rand.NewSource(seed + 10_000 + int64(i)))}
	}
	for i := range n.cores {
		n.cores[i] = &ClosCore{net: n, id: int32(i)}
	}
	n.wireHosts(func(rack int) Node { return n.tors[rack] })
	// ToR ports: d down to hosts, u up — one to each agg in its pod.
	for t, tor := range n.tors {
		tor.down = n.downlinks(t)
		pod := topo.ToRPod(t)
		tor.up = make([]*Port, topo.UplinksPerToR)
		for i := 0; i < topo.UplinksPerToR; i++ {
			agg := n.aggs[pod*topo.AggPerPod+i%topo.AggPerPod]
			tor.up[i] = NewPort(eng, n.cfg, fmt.Sprintf("tor%d->agg%d", t, agg.id), agg)
		}
	}
	// Agg ports: k/2 down to pod ToRs, k/2 up to its core group.
	corePerAgg := topo.K / 2
	for a, agg := range n.aggs {
		pod := a / topo.AggPerPod
		inPod := a % topo.AggPerPod
		agg.pod = int32(pod)
		agg.down = make([]*Port, topo.ToRsPerPod)
		for i := 0; i < topo.ToRsPerPod; i++ {
			tor := n.tors[pod*topo.ToRsPerPod+i]
			agg.down[i] = NewPort(eng, n.cfg, fmt.Sprintf("agg%d->tor%d", a, tor.id), tor)
		}
		agg.up = make([]*Port, corePerAgg)
		for i := 0; i < corePerAgg; i++ {
			core := n.cores[(inPod*corePerAgg+i)%topo.NumCore]
			agg.up[i] = NewPort(eng, n.cfg, fmt.Sprintf("agg%d->core%d", a, core.id), core)
		}
	}
	// Core ports: one down to the corresponding agg of every pod.
	for c, core := range n.cores {
		inPodPos := c / corePerAgg // which in-pod agg position this core serves
		core.down = make([]*Port, topo.NumPods)
		for pod := 0; pod < topo.NumPods; pod++ {
			agg := n.aggs[pod*topo.AggPerPod+inPodPos%topo.AggPerPod]
			core.down[pod] = NewPort(eng, n.cfg, fmt.Sprintf("core%d->agg%d", c, agg.id), agg)
		}
	}
	n.faults = newFaults(eng, seed, n.faultMap())
	return n
}

// PacketCapable implements Network: the Clos is all packet switching.
func (n *ClosNet) PacketCapable() bool { return true }

// Start implements Network; a static fabric has no circuit clock.
func (n *ClosNet) Start() {}

// Stop implements Network.
func (n *ClosNet) Stop() {}

// Topology returns the Clos dimensions.
func (n *ClosNet) Topology() *topology.FoldedClos { return n.topo }

// ClosToR is a ToR switch: up for non-local, down for local.
type ClosToR struct {
	net  *ClosNet
	id   int32
	up   []*Port
	down []*Port
	rng  *rand.Rand
}

// Receive implements Node: down for local, else sprayed over the live
// uplinks.
func (t *ClosToR) Receive(p *Packet, _ *Port) {
	n := t.net
	if n.faults.nodeDown[t.id] { // a dead ToR forwards nothing, rack-local included
		n.faults.lose(p)
		return
	}
	if p.DstRack == t.id {
		deliverLocal(t.down, t.id, p)
		return
	}
	i := sprayLive(n.torUplinks(int(t.id)), t.rng)
	if i < 0 {
		n.faults.lose(p)
		return
	}
	p.Hops++
	t.up[i].Enqueue(p)
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

// ClosAgg is a pod aggregation switch.
type ClosAgg struct {
	net  *ClosNet
	id   int32
	pod  int32
	up   []*Port
	down []*Port
	rng  *rand.Rand
}

// Receive implements Node: down the destination's cable inside the pod,
// else sprayed over the live core uplinks. A dead agg needs no check of its
// own: every cable touching it is unusable, so both branches below lose the
// packet before any RNG draw.
func (a *ClosAgg) Receive(p *Packet, _ *Port) {
	n := a.net
	topo := n.topo
	if int32(topo.ToRPod(int(p.DstRack))) == a.pod {
		if !n.aggDownToTor(int(a.id), int(p.DstRack)) {
			n.faults.lose(p)
			return
		}
		a.down[int(p.DstRack)%topo.ToRsPerPod].Enqueue(p)
		return
	}
	j := sprayLive(n.aggUplinks(int(a.id)), a.rng)
	if j < 0 {
		n.faults.lose(p)
		return
	}
	a.up[j].Enqueue(p)
}

// ClosCore is a core switch; the downward pod is determined by the
// destination.
type ClosCore struct {
	net  *ClosNet
	id   int32
	down []*Port // indexed by pod
}

// Receive implements Node; the downward hop is deterministic, so a dead
// core or dead tier-2 reverse cable drops the packet (NDP retransmits).
func (c *ClosCore) Receive(p *Packet, _ *Port) {
	pod := c.net.topo.ToRPod(int(p.DstRack))
	if !c.net.coreDownToAgg(int(c.id), pod) {
		c.net.faults.lose(p)
		return
	}
	c.down[pod].Enqueue(p)
}
