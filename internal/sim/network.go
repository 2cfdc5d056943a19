package sim

import (
	"fmt"
	"sort"
	"sync"

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
	// Kind returns the architecture's registered name (e.g. "opera").
	Kind() string
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
// directly (rotorlb.LB).
type Transport interface {
	StartFlow(f *Flow)
}

// FaultNetwork is the capability interface for runtime failure injection:
// a Network that hands out the Faults injector (see faultapi.go) over its
// live state. All four built-in fabrics implement it, each contributing
// its coordinate map and its reaction to a state change: OperaNet
// (§3.6.2's detection-and-epidemic model), ExpanderNet (instant
// link-state reconvergence), RotorNetSim (instant global knowledge over
// the OOB management channel) and ClosNet (instant local link-state with
// tier-addressed coordinates).
type FaultNetwork interface {
	Network
	// Faults returns the fabric's fault injector, creating it on first use.
	Faults() *Faults
}

// BuildParams carries everything a registered architecture needs to
// assemble itself: the shared event engine, physical constants, and the
// sizing knobs of the root package's ClusterConfig.
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

var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{}
)

// Register installs a Network constructor under an architecture name.
// The four built-in fabrics register themselves from their init functions;
// additional fabrics register the same way and become buildable through
// the root package without modifying it. Register panics on a duplicate
// name — architecture names are a flat global namespace.
func Register(kind string, b Builder) {
	if b == nil {
		panic("sim: Register with nil builder")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("sim: duplicate network registration %q", kind))
	}
	registry[kind] = b
}

// Build constructs the named architecture.
func Build(kind string, p BuildParams) (Network, error) {
	registryMu.RLock()
	b := registry[kind]
	registryMu.RUnlock()
	if b == nil {
		return nil, fmt.Errorf("sim: no network architecture registered as %q (have %v)", kind, RegisteredKinds())
	}
	return b(p)
}

// RegisteredKinds lists all registered architecture names, sorted.
func RegisteredKinds() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	kinds := make([]string, 0, len(registry))
	for k := range registry {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// The built-in fabrics all take faults (FaultNetwork includes Network), and
// the rotor fabrics have circuits.
var (
	_ FaultNetwork   = (*OperaNet)(nil)
	_ FaultNetwork   = (*ExpanderNet)(nil)
	_ FaultNetwork   = (*RotorNetSim)(nil)
	_ FaultNetwork   = (*ClosNet)(nil)
	_ CircuitNetwork = (*OperaNet)(nil)
	_ CircuitNetwork = (*RotorNetSim)(nil)
)
