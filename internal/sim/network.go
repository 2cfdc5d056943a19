package sim

import (
	"fmt"
	"sort"

	"github.com/opera-net/opera/internal/eventsim"
)

// Network is the top-level fabric abstraction: a fully wired simulated
// datacenter (hosts, switches, links and — for rotor fabrics — circuit
// clocks) ready to carry traffic. The Cluster in the root package drives
// exactly one Network and attaches transports to it based on its
// capabilities: NDP when PacketCapable reports an always-on packet path,
// RotorLB when the Network also implements CircuitNetwork.
type Network interface {
	// Engine returns the discrete-event engine the fabric schedules on.
	Engine() *eventsim.Engine
	// Config returns the physical constants (link rate, MTU, queue sizes).
	Config() *Config
	// Hosts returns all hosts, indexed by host ID.
	Hosts() []*Host
	// Metrics returns the fabric's flow and throughput accounting.
	Metrics() *Metrics
	// NumRacks returns the rack (ToR) count.
	NumRacks() int
	// HostsPerRack returns hosts per rack.
	HostsPerRack() int
	// Kind returns the architecture's name (e.g. "opera").
	Kind() string
	// Faults returns the fabric's fault injector (see faultapi.go), which
	// owns its link-state table from construction. What differs per
	// fabric is the coordinate map and the reaction to a state change:
	// OperaNet (§3.6.2's detection-and-epidemic model), ExpanderNet
	// (instant link-state reconvergence), RotorNetSim (instant global
	// knowledge over the OOB management channel) and ClosNet (instant
	// local link-state with tier-addressed coordinates).
	Faults() *Faults
	// PacketCapable reports whether the fabric has an always-on
	// packet-switched path, i.e. whether NDP low-latency traffic can be
	// carried. Circuit-only fabrics (non-hybrid RotorNet) return false.
	PacketCapable() bool
	// Start begins any circuit clocks; call once, after transports attach.
	Start()
	// Stop halts circuit clocks so a finished simulation can drain.
	Stop()
}

// Transport admits flows into a Network. Both transports implement it:
// NDP through the per-host endpoint fan-out (ndp.Fabric) and RotorLB
// directly (rotorlb.LB). A transport attaches by claiming the packet kinds
// it owns on every host (Host.Handle) and stamps each packet it sends with
// its flow (Packet.Flow), so delivery needs no flow table.
type Transport interface {
	StartFlow(f *Flow)
}

// BuildParams carries everything an architecture needs to assemble
// itself: the shared event engine, physical constants, and the sizing
// knobs of the root package's ClusterConfig.
type BuildParams struct {
	Engine *eventsim.Engine
	Sim    Config

	// Racks, HostsPerRack and Uplinks size Opera/RotorNet/expander
	// fabrics; ClosK and ClosF size the folded Clos.
	Racks        int
	HostsPerRack int
	Uplinks      int
	ClosK, ClosF int

	// MaxSliceDiameter bounds Opera slice diameters at build time.
	MaxSliceDiameter int

	Seed int64
}

// Builder constructs a wired (but not yet started) Network.
type Builder func(p BuildParams) (Network, error)

// builders is the closed set of architectures, by name.
var builders = map[string]Builder{
	"opera":           buildOpera,
	"expander":        buildExpander,
	"foldedclos":      buildClos,
	"rotornet":        func(p BuildParams) (Network, error) { return buildRotorNet(p, false) },
	"rotornet-hybrid": func(p BuildParams) (Network, error) { return buildRotorNet(p, true) },
}

// Build constructs the named architecture.
func Build(kind string, p BuildParams) (Network, error) {
	b := builders[kind]
	if b == nil {
		kinds := make([]string, 0, len(builders))
		for k := range builders {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		return nil, fmt.Errorf("sim: no network architecture registered as %q (have %v)", kind, kinds)
	}
	return b(p)
}

// The rotor fabrics have circuits.
var (
	_ CircuitNetwork = (*OperaNet)(nil)
	_ CircuitNetwork = (*RotorNetSim)(nil)
)
