// Package opera is a from-scratch Go implementation of Opera, the
// datacenter network architecture of Mellette et al., "Expanding across
// time to deliver bandwidth efficiency and low latency" (NSDI 2020),
// together with every substrate its evaluation depends on: an
// htsim-style packet-level simulator, the NDP and RotorLB transports, the
// static expander / folded-Clos / RotorNet baselines, the cost
// normalization model, and the failure and spectral analyses.
//
// The central abstraction is the Cluster: a simulated datacenter of a
// chosen architecture, to which workloads are submitted as flow lists.
// Clusters are assembled with functional options:
//
//	cl, err := opera.New(opera.KindOpera,
//		opera.WithRacks(16),
//		opera.WithHostsPerRack(4),
//		opera.WithUplinks(4),
//		opera.WithSeed(1),
//	)
//	if err != nil { ... }
//	cl.AddFlows(workload.Shuffle(cl.NumHosts(), 100_000, 0, 1))
//	cl.RunUntilDone(eventsim.Time(5 * eventsim.Millisecond))
//	fct := cl.Metrics().FCTSample(nil)
//
// The architecture set is closed: internal/sim builds each fabric by its
// Kind's name, and the Cluster attaches transports by capability — NDP
// wherever the fabric has an always-on packet path, RotorLB wherever it
// exposes slice-driven circuits (sim.CircuitNetwork). Each transport
// claims its own packet kinds on every host, and every packet points at
// its flow. Flows smaller than DefaultBulkThreshold (15 MB, §4.1) are
// latency-sensitive and ride NDP over the current expander slice; larger
// flows wait at hosts and ride RotorLB over direct circuits.
// Baselines use the transports the paper gives them: NDP everywhere for
// the static networks, RotorLB (plus NDP over the hybrid packet fabric)
// for RotorNet.
//
// For parameter sweeps, the scenario package fans whole clusters out
// across goroutines: build a []scenario.Scenario and hand it to
// scenario.RunScenarios.
package opera

import (
	"fmt"
	"sort"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/ndp"
	"github.com/opera-net/opera/internal/rotorlb"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// Kind selects a network architecture.
type Kind int

// Supported architectures (§5's comparison set).
const (
	// KindOpera is the paper's contribution: rotor circuit switches with
	// staggered reconfiguration forming time-varying expanders.
	KindOpera Kind = iota
	// KindExpander is the cost-equivalent static expander (u = 7 flavor).
	KindExpander
	// KindFoldedClos is the 3:1-oversubscribed three-tier folded Clos.
	KindFoldedClos
	// KindRotorNet is non-hybrid RotorNet: all uplinks on synchronized
	// rotor switches, no packet fabric (bulk-only connectivity).
	KindRotorNet
	// KindRotorNetHybrid diverts one uplink to an always-on packet fabric
	// for low-latency traffic (+33% cost in the paper's accounting).
	KindRotorNetHybrid
)

// kindNames is each Kind's architecture name in internal/sim, indexed by
// Kind.
var kindNames = [...]string{
	KindOpera:          "opera",
	KindExpander:       "expander",
	KindFoldedClos:     "foldedclos",
	KindRotorNet:       "rotornet",
	KindRotorNetHybrid: "rotornet-hybrid",
}

// kindName resolves a Kind to its architecture name.
func kindName(k Kind) (string, bool) {
	if k < 0 || int(k) >= len(kindNames) {
		return "", false
	}
	return kindNames[k], true
}

func (k Kind) String() string {
	if name, ok := kindName(k); ok {
		return name
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind resolves an architecture name ("opera", "expander",
// "foldedclos", "rotornet" or "rotornet-hybrid") to its Kind.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	known := append([]string(nil), kindNames[:]...)
	sort.Strings(known)
	return 0, fmt.Errorf("opera: unknown network %q (have %v)", name, known)
}

// DefaultBulkThreshold is the flow-size boundary between latency-sensitive
// and bulk service (§4.1: flows ≥ 15 MB can amortize waiting for direct
// circuits).
const DefaultBulkThreshold = 15_000_000

// ClusterConfig is the fully resolved description of a simulated
// datacenter: New starts from the defaults and each Option edits one of
// these fields.
type ClusterConfig struct {
	Kind Kind

	// Racks, HostsPerRack and Uplinks size Opera/RotorNet/expander
	// networks. For KindExpander, Uplinks is the fabric degree u and
	// HostsPerRack is d. For KindFoldedClos, ClosK and ClosF are used
	// instead.
	Racks        int
	HostsPerRack int
	Uplinks      int

	// ClosK and ClosF size the folded Clos (radix, oversubscription).
	ClosK, ClosF int

	// AppTaggedBulk forces every flow to bulk service regardless of size
	// (§5.2's application-tagged shuffle).
	AppTaggedBulk bool

	// Retention selects how Metrics treats completed flows: the zero value
	// (RetainAll) keeps every flow for exact statistics; RetainSketch
	// streams completions into quantile sketches and releases all per-flow
	// state, keeping unbounded soaks flat-memory. See WithRetention.
	Retention RetentionPolicy

	// MaxSliceDiameter bounds Opera slice diameters at build time (0 = no
	// bound; 5 reproduces the paper's ε sizing).
	MaxSliceDiameter int

	Seed int64

	// sched is the engine's pending-event store; nil means the default
	// timing wheel. See WithScheduler.
	sched eventsim.Scheduler
}

// Cluster is a simulated datacenter network plus attached transports: one
// sim.Network and a service-class → Transport dispatch table.
type Cluster struct {
	cfg     ClusterConfig
	eng     *eventsim.Engine
	net     sim.Network
	metrics *sim.Metrics
	hosts   []*sim.Host
	nextID  int64

	// transports dispatches flow admission by service class.
	transports map[sim.Class]sim.Transport
	lb         *rotorlb.LB // nil unless the fabric has circuits
	ndp        *ndp.Fabric // nil unless the fabric has a packet path

	// pumps counts sources added with AddSource that are not yet
	// exhausted; RunUntilDone keeps running while any remain.
	pumps int

	hostsPerRack int
}

// New builds and starts a cluster of the given architecture. Options apply
// over defaults sized like the examples' small testbed: 16 racks × 4
// hosts, 4 uplinks (folded Clos: k=8, F=3), seed 1.
func New(kind Kind, opts ...Option) (*Cluster, error) {
	cfg := ClusterConfig{
		Kind:         kind,
		Racks:        16,
		HostsPerRack: 4,
		Uplinks:      4,
		ClosK:        8,
		ClosF:        3,
		Seed:         1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return build(cfg)
}

// build assembles the cluster: internal/sim builds the architecture by
// name, and transports attach by capability rather than by Kind.
func build(cfg ClusterConfig) (*Cluster, error) {
	name, ok := kindName(cfg.Kind)
	if !ok {
		return nil, fmt.Errorf("opera: unknown network kind %v", cfg.Kind)
	}
	if err := cfg.Retention.Validate(); err != nil {
		return nil, fmt.Errorf("opera: retention: %w", err)
	}

	if cfg.sched == nil {
		cfg.sched = eventsim.NewWheelScheduler()
	}
	c := &Cluster{
		cfg:        cfg,
		eng:        eventsim.NewWith(cfg.sched),
		transports: make(map[sim.Class]sim.Transport),
	}
	net, err := sim.Build(name, sim.BuildParams{
		Engine:           c.eng,
		Sim:              sim.DefaultConfig(),
		Racks:            cfg.Racks,
		HostsPerRack:     cfg.HostsPerRack,
		Uplinks:          cfg.Uplinks,
		ClosK:            cfg.ClosK,
		ClosF:            cfg.ClosF,
		MaxSliceDiameter: cfg.MaxSliceDiameter,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	c.net = net
	c.metrics = net.Metrics()
	c.hosts = net.Hosts()
	c.hostsPerRack = net.HostsPerRack()

	// The cluster never holds a flow — a packet points at its flow — so
	// under streaming retention a million-flow soak holds only its active
	// flows.
	c.metrics.SetRetention(cfg.Retention)

	// Bulk rides RotorLB wherever the fabric exposes circuits.
	if cn, ok := net.(sim.CircuitNetwork); ok {
		c.lb = rotorlb.Attach(cn)
		c.transports[sim.ClassBulk] = c.lb
		net.Faults().SetStrandedProbe(c.lb.StrandedBytes)
	}
	// Low-latency traffic rides NDP wherever an always-on packet path
	// exists; on the static fabrics NDP carries bulk too (Class then only
	// drives priority queueing, §5's "ideal priority queuing").
	if net.PacketCapable() {
		c.ndp = ndp.Attach(c.hosts, c.metrics)
		c.transports[sim.ClassLowLatency] = c.ndp
		if c.transports[sim.ClassBulk] == nil {
			c.transports[sim.ClassBulk] = c.ndp
		}
	}
	// Circuit-only fabrics (non-hybrid RotorNet) have no packet path:
	// everything is reclassified bulk and waits for circuits.
	if c.transports[sim.ClassLowLatency] == nil {
		if c.lb == nil {
			return nil, fmt.Errorf("opera: network %q offers neither packet nor circuit transport", name)
		}
		c.transports[sim.ClassLowLatency] = forceBulk{c.lb}
	}
	net.Start()
	return c, nil
}

// forceBulk reclassifies every flow as bulk before admission — the service
// model of circuit-only fabrics.
type forceBulk struct{ t sim.Transport }

func (fb forceBulk) StartFlow(f *sim.Flow) {
	f.Class = sim.ClassBulk
	fb.t.StartFlow(f)
}

// Engine exposes the simulation engine (for custom event scheduling).
func (c *Cluster) Engine() *eventsim.Engine { return c.eng }

// Metrics exposes flow and throughput accounting.
func (c *Cluster) Metrics() *sim.Metrics { return c.metrics }

// Network exposes the underlying fabric.
func (c *Cluster) Network() sim.Network { return c.net }

// Transport returns the transport admitting flows of the given class.
func (c *Cluster) Transport(class sim.Class) sim.Transport { return c.transports[class] }

// NumHosts returns the host count.
func (c *Cluster) NumHosts() int { return len(c.hosts) }

// HostsPerRack returns hosts per rack (ToR).
func (c *Cluster) HostsPerRack() int { return c.hostsPerRack }

// HostRack returns the rack of a host.
func (c *Cluster) HostRack(h int) int { return h / c.hostsPerRack }

// Kind returns the cluster's architecture.
func (c *Cluster) Kind() Kind { return c.cfg.Kind }

// OperaNet exposes the underlying Opera fabric (nil for other kinds), for
// failure injection and slice-level instrumentation.
func (c *Cluster) OperaNet() *sim.OperaNet {
	n, _ := c.net.(*sim.OperaNet)
	return n
}

// Faults returns the fabric's runtime fault injector. Every architecture
// carries one from construction, the one *sim.Faults type; what differs is
// how each fabric reacts to a state change: Opera runs the §3.6.2
// detection-and-epidemic recovery of its rotor fabric, the static
// expander and the folded Clos reconverge instantly, and RotorNet routes
// around dead circuits over its out-of-band management channel. Faults
// are structured: a sim.Target (link, ToR, or switch coordinate) plus a
// sim.Fault (hard down, lossy, degraded, or flapping), scheduled at a
// virtual time:
//
//	inj := cl.Faults()
//	inj.Inject(sim.FlatLink(3, 2), sim.DownFault(), 500*eventsim.Microsecond)
//	inj.Inject(sim.FlatLink(4, 0), sim.LossyFault(0.01), eventsim.Millisecond)
//	inj.Recover(sim.FlatLink(3, 2), 2*eventsim.Millisecond)
//
// Links, ActiveFaults, StrandedBytes and the Lost counter are plain
// methods and fields of the same value. On circuit fabrics StrandedBytes
// is wired to RotorLB's stranded-VLB accounting.
func (c *Cluster) Faults() *sim.Faults { return c.net.Faults() }

// NDPFabric exposes the NDP transport's endpoint fabric, or nil when the
// architecture has no always-on packet path (non-hybrid RotorNet). The
// observability plane reads its flow-state pool gauges from here.
func (c *Cluster) NDPFabric() *ndp.Fabric { return c.ndp }

// RotorLB exposes the bulk circuit transport, or nil when the fabric has
// no circuits (static expander, folded Clos).
func (c *Cluster) RotorLB() *rotorlb.LB { return c.lb }

// BulkNACKCount reports §4.2.2 NACK retransmissions observed (circuit
// networks only).
func (c *Cluster) BulkNACKCount() uint64 {
	if c.lb == nil {
		return 0
	}
	return c.lb.NACKs
}

// classify picks the service class for a flow: bulk when the whole
// cluster or the individual spec is application-tagged (§3.4), or when
// the flow can amortize waiting for direct circuits (§4.1).
func (c *Cluster) classify(spec workload.FlowSpec) sim.Class {
	if c.cfg.AppTaggedBulk || spec.Bulk {
		return sim.ClassBulk
	}
	if spec.Bytes >= DefaultBulkThreshold {
		return sim.ClassBulk
	}
	return sim.ClassLowLatency
}

// addFlow registers a flow of the given class and schedules its start.
func (c *Cluster) addFlow(spec workload.FlowSpec, class sim.Class) *sim.Flow {
	if spec.Src < 0 || spec.Src >= len(c.hosts) || spec.Dst < 0 || spec.Dst >= len(c.hosts) {
		// Fail loudly at the boundary: an out-of-range host would otherwise
		// surface as an opaque index panic deep inside a transport.
		panic(fmt.Sprintf("opera: flow %d->%d outside cluster with %d hosts", spec.Src, spec.Dst, len(c.hosts)))
	}
	c.nextID++
	f := &sim.Flow{
		ID:      c.nextID,
		SrcHost: int32(spec.Src),
		DstHost: int32(spec.Dst),
		SrcRack: int32(c.HostRack(spec.Src)),
		DstRack: int32(c.HostRack(spec.Dst)),
		Size:    spec.Bytes,
		Class:   class,
		Tag:     spec.Tag,
		Start:   spec.Arrival,
	}
	c.metrics.AddFlow(f)
	if spec.Arrival <= c.eng.Now() {
		c.startFlow(f)
	} else {
		c.eng.AtCall(spec.Arrival, flowStart{c}, f)
	}
	return f
}

// flowStart is the pre-bound handler (eventsim.Handler) starting a flow at
// its arrival time; the flow rides the event's argument.
type flowStart struct{ c *Cluster }

func (h flowStart) OnEvent(arg any) { h.c.startFlow(arg.(*sim.Flow)) }

// AddFlow registers and schedules a single flow; it starts at spec.Arrival
// (virtual time, which must not be in the past).
func (c *Cluster) AddFlow(spec workload.FlowSpec) *sim.Flow {
	return c.addFlow(spec, c.classify(spec))
}

// AddFlows schedules a batch of flows.
func (c *Cluster) AddFlows(specs []workload.FlowSpec) {
	for _, s := range specs {
		c.AddFlow(s)
	}
}

// AddBulkFlow schedules a flow that is application-tagged as bulk
// regardless of its size (§3.4's application-based tagging).
func (c *Cluster) AddBulkFlow(spec workload.FlowSpec) *sim.Flow {
	return c.addFlow(spec, sim.ClassBulk)
}

// AddSource drives a lazy flow source: instead of materializing the flow
// list up front (AddFlows), the cluster schedules one arrival event at a
// time — when it fires, every flow due at that instant is admitted, the
// source is pulled for the next arrival, and a single new event is
// scheduled for it. A source of a million flows therefore costs one
// pending event and one spec of lookahead, keeping workload memory
// O(active flows) for unbounded-duration runs; only Metrics' per-flow
// completion records grow with the total count.
//
// Sources yield flows in nondecreasing arrival order (see
// workload.Source); a flow arriving out of order is admitted immediately,
// like AddFlow with a past arrival. RunUntilDone treats an unexhausted
// source as pending work, so a run cannot end early during a lull between
// arrivals.
//
// A source that already holds its complete flow list
// (workload.Materialized, e.g. workload.FromSpecs) is scheduled in one
// shot instead: the list is O(n) memory either way, and one-shot
// scheduling keeps results identical to the historical AddFlows path.
func (c *Cluster) AddSource(src workload.Source) {
	if m, ok := src.(workload.Materialized); ok {
		c.AddFlows(m.Specs())
		return
	}
	spec, ok := src.Next()
	if !ok {
		return
	}
	c.pumps++
	at := spec.Arrival
	if at < c.eng.Now() {
		at = c.eng.Now()
	}
	c.eng.AtCall(at, &sourcePump{c: c, src: src, next: spec}, nil)
}

// sourcePump is one AddSource source's arrival handler: it holds the one
// spec of lookahead and reschedules itself for it.
type sourcePump struct {
	c    *Cluster
	src  workload.Source
	next workload.FlowSpec
}

func (p *sourcePump) OnEvent(any) {
	c := p.c
	now := c.eng.Now()
	for {
		c.AddFlow(p.next)
		var ok bool
		p.next, ok = p.src.Next()
		if !ok {
			c.pumps--
			return
		}
		if p.next.Arrival > now {
			break
		}
	}
	c.eng.AtCall(p.next.Arrival, p, nil)
}

// PendingSources reports how many sources added with AddSource still have
// flows to yield.
func (c *Cluster) PendingSources() int { return c.pumps }

// startFlow hands the flow to the transport serving its class.
func (c *Cluster) startFlow(f *sim.Flow) {
	c.transports[f.Class].StartFlow(f)
}

// Run advances the simulation to the given absolute virtual time.
func (c *Cluster) Run(until eventsim.Time) { c.eng.RunUntil(until) }

// RunUntilDone advances until every registered flow completes or the
// deadline passes, checking at 100 µs granularity; it returns early when
// the event queue drains, since no pending event means no flow can make
// further progress. While a source added with AddSource still has flows to
// yield, the run continues even if everything admitted so far is done — a
// lull between arrivals is not completion. It reports completion: all
// admitted flows done and every source exhausted.
func (c *Cluster) RunUntilDone(deadline eventsim.Time) bool {
	const step = 100 * eventsim.Microsecond
	for c.eng.Now() < deadline {
		c.eng.RunUntil(c.eng.Now() + step)
		done, total := c.metrics.DoneCount()
		if done == total && c.pumps == 0 {
			return true
		}
		if c.eng.Len() == 0 {
			break
		}
	}
	done, total := c.metrics.DoneCount()
	return done == total && c.pumps == 0
}

// Stop halts circuit clocks so a finished simulation can drain.
func (c *Cluster) Stop() { c.net.Stop() }
