package sim

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/routing"
	"github.com/opera-net/opera/internal/topology"
)

// OperaNet assembles a full Opera fabric: hosts, ToRs, rotor-switch uplinks
// with staggered reconfiguration, per-slice routing tables, and the slice
// clock that drives reconfiguration blackouts and transport notifications.
type OperaNet struct {
	eng     *eventsim.Engine
	cfg     *Config
	topo    *topology.Opera
	tables  *routing.Tables
	hosts   []*Host
	tors    []*OperaToR
	metrics *Metrics

	curSlice  int64
	listeners []func(absSlice int64)
	stopped   bool

	// tick and blackouts are the pre-bound slice-clock handlers
	// (eventsim.Handler), one blackout handler per rotor switch, so the
	// clock schedules without per-slice closures.
	tick      operaSliceTick
	blackouts []operaBlackout

	// faults is the runtime fault injector and epidemic the §3.6.2
	// hello-protocol state reacting to it; both nil until Faults() is
	// first used (see failures.go).
	faults   *Faults
	epidemic *helloEpidemic
	// faultSeed seeds deterministic gray-failure (lossy-link) draws.
	faultSeed int64
}

// operaSliceTick advances the slice clock; the next slice number is always
// curSlice+1, so the event needs no argument.
type operaSliceTick struct{ n *OperaNet }

func (h *operaSliceTick) OnEvent(any) { h.n.sliceBoundary(h.n.curSlice + 1) }

// operaBlackout darkens one rotor switch's ports for its reconfiguration.
type operaBlackout struct {
	n  *OperaNet
	sw int
}

func (h *operaBlackout) OnEvent(any) {
	for _, tor := range h.n.tors {
		tor.up[h.sw].SetEnabled(false)
		tor.up[h.sw].FlushForReconfig(tor.requeue)
	}
}

func init() {
	Register("opera", func(p BuildParams) (Network, error) {
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
	})
}

// NewOperaNet wires an Opera network over the given topology. seed drives
// per-ToR packet spraying.
func NewOperaNet(eng *eventsim.Engine, cfg Config, topo *topology.Opera, seed int64) *OperaNet {
	n := &OperaNet{
		eng:       eng,
		cfg:       &cfg,
		topo:      topo,
		tables:    routing.MustBuild(routing.OperaPortMaps(topo)),
		metrics:   NewMetrics(),
		faultSeed: seed,
	}
	d := topo.HostsPerRack()
	numRacks := topo.NumRacks()
	n.hosts = make([]*Host, topo.NumHosts())
	n.tors = make([]*OperaToR, numRacks)
	for r := 0; r < numRacks; r++ {
		n.tors[r] = newOperaToR(n, int32(r), rand.New(rand.NewSource(seed+int64(r)+1)))
	}
	for h := range n.hosts {
		host := NewHost(eng, n.cfg, int32(h), int32(h/d))
		n.hosts[h] = host
		tor := n.tors[host.Rack]
		host.SetNIC(NewPort(eng, n.cfg, fmt.Sprintf("host%d->tor%d", h, host.Rack), tor))
	}
	for r := 0; r < numRacks; r++ {
		n.tors[r].wire()
	}
	n.tick.n = n
	n.blackouts = make([]operaBlackout, topo.Uplinks())
	for sw := range n.blackouts {
		n.blackouts[sw] = operaBlackout{n: n, sw: sw}
	}
	return n
}

// Start begins the slice clock; call once before running the engine.
func (n *OperaNet) Start() {
	n.sliceBoundary(0)
}

// Stop halts the slice clock after the current slice (used to end
// simulations cleanly so the engine can drain).
func (n *OperaNet) Stop() { n.stopped = true }

// Kind implements Network.
func (n *OperaNet) Kind() string { return "opera" }

// PacketCapable implements Network: the non-transitioning rotor matchings
// form an expander carrying packet-switched low-latency traffic (§3.2).
func (n *OperaNet) PacketCapable() bool { return true }

// Engine returns the simulation engine.
func (n *OperaNet) Engine() *eventsim.Engine { return n.eng }

// Config returns the physical constants.
func (n *OperaNet) Config() *Config { return n.cfg }

// Metrics returns the metrics collector.
func (n *OperaNet) Metrics() *Metrics { return n.metrics }

// Hosts returns all hosts.
func (n *OperaNet) Hosts() []*Host { return n.hosts }

// Topology returns the underlying Opera topology.
func (n *OperaNet) Topology() *topology.Opera { return n.topo }

// Uplinks returns the rotor-switch (uplink) count per ToR.
func (n *OperaNet) Uplinks() int { return n.topo.Uplinks() }

// Tables returns the per-slice routing tables.
func (n *OperaNet) Tables() *routing.Tables { return n.tables }

// ToR returns the ToR switch of the given rack.
func (n *OperaNet) ToR(rack int) *OperaToR { return n.tors[rack] }

// CurrentSlice returns the absolute slice number.
func (n *OperaNet) CurrentSlice() int64 { return n.curSlice }

// OnSlice registers a callback invoked at every slice boundary (after port
// state has been updated for the new slice).
func (n *OperaNet) OnSlice(fn func(absSlice int64)) {
	n.listeners = append(n.listeners, fn)
}

// sliceBoundary runs at the start of absolute slice S.
func (n *OperaNet) sliceBoundary(S int64) {
	n.curSlice = S
	slices := n.topo.SlicesPerCycle()
	sc := int(S % int64(slices))
	// Switches that reconfigured at this boundary come back up with their
	// new matchings.
	if S > 0 {
		prev := (sc - 1 + slices) % slices
		for sw := 0; sw < n.topo.Uplinks(); sw++ {
			if !n.topo.IsTransitioning(sw, prev) {
				continue
			}
			for _, tor := range n.tors {
				// Bulk that straggled in during the blackout was admitted
				// against the old circuit: NACK it rather than deliver it
				// to the wrong rack.
				tor.up[sw].FlushForReconfig(tor.requeue)
				tor.up[sw].SetEnabled(true)
			}
		}
	}
	// Switches transitioning during this slice go dark for its final r.
	dur := n.topo.SliceDuration()
	r := n.topo.Config().ReconfDelay
	for sw := 0; sw < n.topo.Uplinks(); sw++ {
		if n.topo.IsTransitioning(sw, sc) {
			n.eng.AfterCall(dur-r, &n.blackouts[sw], nil)
		}
	}
	// Hello exchange on every fresh circuit spreads failure news (§3.6.2).
	if n.epidemic != nil {
		n.epidemic.spread(sc)
	}
	for _, fn := range n.listeners {
		fn(S)
	}
	if !n.stopped {
		// The slice clock rides one Event for the whole run (unless a port
		// kicked inside this tick claimed the firing object first).
		n.eng.ContinueCall(dur, &n.tick, nil)
	}
}

// OperaToR is a top-of-rack switch in an Opera network. It forwards
// low-latency packets along the tagged slice's expander paths and bulk
// packets out the direct circuit of the current slice (§4.3).
type OperaToR struct {
	net     *OperaNet
	rack    int32
	up      []*Port // one per rotor switch
	down    []*Port // one per local host
	rng     *rand.Rand
	relayRR int // round-robin selector for VLB storage hosts

	// BulkNACKs counts §4.2.2 NACKs issued by this ToR.
	BulkNACKs uint64
}

func newOperaToR(n *OperaNet, rack int32, rng *rand.Rand) *OperaToR {
	return &OperaToR{net: n, rack: rack, rng: rng}
}

// wire builds the ToR's ports (hosts must exist already).
func (t *OperaToR) wire() {
	n := t.net
	topo := n.topo
	d := topo.HostsPerRack()
	t.down = make([]*Port, d)
	lo, _ := topo.RackHosts(int(t.rack))
	for i := 0; i < d; i++ {
		host := n.hosts[lo+i]
		t.down[i] = NewPort(n.eng, n.cfg, fmt.Sprintf("tor%d->host%d", t.rack, host.ID), host)
		// Several circuits can converge on one downlink; overflowing bulk
		// is NACKed back to its sender like any other ToR drop (§4.2.2).
		t.down[i].SetBulkDropHandler(t.bulkNACK)
	}
	t.up = make([]*Port, topo.Uplinks())
	for sw := 0; sw < topo.Uplinks(); sw++ {
		sw := sw
		resolve := func(at eventsim.Time) Node {
			sc, _, _ := topo.SliceAt(at)
			peer := topo.SwitchMatching(sw, sc).Peer(int(t.rack))
			if peer == int(t.rack) {
				return nil // self-loop: dark port this configuration
			}
			if fs := n.faults; fs != nil && (!fs.LinkUp(int(t.rack), sw) || !fs.LinkUp(peer, sw)) {
				fs.Lost++
				return nil // failed cable, switch, or peer ToR
			}
			return n.tors[peer]
		}
		t.up[sw] = NewDynamicPort(n.eng, n.cfg, fmt.Sprintf("tor%d-up%d", t.rack, sw), resolve)
		t.up[sw].SetBulkDropHandler(t.bulkNACK)
	}
}

// Uplink returns the port to the given rotor switch.
func (t *OperaToR) Uplink(sw int) *Port { return t.up[sw] }

// Downlink returns the port to the i-th local host.
func (t *OperaToR) Downlink(i int) *Port { return t.down[i] }

// Receive implements Node.
func (t *OperaToR) Receive(p *Packet, from *Port) {
	n := t.net
	if p.Kind == KindBulk {
		t.receiveBulk(p)
		return
	}
	// Control and low-latency forwarding over the expander.
	if p.DstRack == t.rack {
		t.deliverLocal(p)
		return
	}
	// Stamp the configuration tag at the first ToR (§4.3); refresh a stale
	// tag (older than the previous slice) so lookups stay meaningful.
	cur := n.curSlice
	if p.SliceTag < 0 || cur-p.SliceTag > 1 {
		p.SliceTag = cur
	}
	slices := int64(n.topo.SlicesPerCycle())
	sc := int(p.SliceTag % slices)
	tables := n.tables
	if n.epidemic != nil {
		tables = n.epidemic.tablesFor(int(t.rack))
	}
	uplink := tables.PickUplink(sc, int(t.rack), int(p.DstRack), t.rng.Uint32())
	if uplink < 0 {
		// Unreachable under this slice's tables (can only happen with
		// failures); retry against the current slice before giving up.
		p.SliceTag = cur
		uplink = tables.PickUplink(int(cur%slices), int(t.rack), int(p.DstRack), t.rng.Uint32())
		if uplink < 0 {
			p.Release()
			return
		}
	}
	p.Hops++
	t.up[uplink].Enqueue(p)
}

// receiveBulk forwards a RotorLB packet: down if local or at its relay
// rack, else out the direct circuit of the current slice; mistimed packets
// are NACKed back to their sender (§4.2.2).
func (t *OperaToR) receiveBulk(p *Packet) {
	if p.RelayRack == t.rack {
		// VLB first leg complete: hand to a local host for storage.
		d := len(t.down)
		t.down[t.relayRR%d].Enqueue(p)
		t.relayRR++
		return
	}
	if p.DstRack == t.rack {
		t.deliverLocal(p)
		return
	}
	target := int(p.DstRack)
	if p.RelayRack >= 0 {
		target = int(p.RelayRack)
	}
	sc, _, _ := t.net.topo.SliceAt(t.net.eng.Now())
	// Transitioning switches remain usable until their blackout; the port's
	// disable/flush enforces the actual deadline (§4.2.2).
	sw := t.net.topo.DirectSwitchInstalled(sc, int(t.rack), target)
	if sw < 0 {
		t.bulkNACK(p)
		return
	}
	// A ToR knows its own links' state immediately (signal loss, §3.5).
	if fs := t.net.faults; fs != nil && !fs.LinkUp(int(t.rack), sw) {
		t.bulkNACK(p)
		return
	}
	p.Hops++
	t.up[sw].Enqueue(p)
}

func (t *OperaToR) deliverLocal(p *Packet) {
	d := len(t.down)
	idx := int(p.DstHost) - int(t.rack)*d
	if idx < 0 || idx >= d {
		p.Release()
		return
	}
	t.down[idx].Enqueue(p)
}

// bulkNACK converts a failed bulk packet into a §4.2.2 NACK routed back to
// the sending host so it can requeue the bytes.
func (t *OperaToR) bulkNACK(p *Packet) {
	t.BulkNACKs++
	nack := NewPacket()
	nack.Kind = KindBulkNack
	nack.Class = ClassControl
	nack.Size = int32(t.net.cfg.HeaderBytes)
	nack.SrcHost = p.DstHost // nominal; unused on arrival
	nack.SrcRack = p.DstRack
	nack.DstHost = p.SrcHost
	nack.DstRack = p.SrcRack
	nack.FlowID = p.FlowID
	nack.Seq = p.Seq
	nack.PayloadSize = p.PayloadSize
	nack.PullNo = p.DstRack      // final destination rack, for requeueing
	nack.RelayRack = p.RelayRack // ≥0 ⇒ the failed send was a VLB first leg
	nack.OrigHops = p.Hops
	p.Release()
	t.Receive(nack, nil) // routes like control traffic
}

// requeue re-injects a packet flushed from a reconfiguring port.
func (t *OperaToR) requeue(p *Packet) {
	p.SliceTag = -1
	t.Receive(p, nil)
}
