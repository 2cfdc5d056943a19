package topology

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/graph"
)

// Physical constants used throughout the paper's evaluation (§4.1, §5).
// The link, packet and queue values are sim.DefaultConfig's; the group
// size is Config.GroupSize's default. ε and r are fixed: every Opera and
// RotorNet slice lasts ε + r and is dark for the final r.
const (
	DefaultLinkRateGbps   = 10.0
	DefaultMTU            = 1500
	DefaultHeaderBytes    = 64
	DefaultPropDelay      = 500 * eventsim.Nanosecond // 100 m of fiber
	DefaultEpsilon        = 90 * eventsim.Microsecond // worst-case end-to-end delay ε
	DefaultReconfDelay    = 10 * eventsim.Microsecond // rotor switch reconfiguration r
	DefaultGroupSize      = 6                         // circuit switches per stagger group (App. B)
	DefaultDataQueueBytes = 12 * 1024                 // 8 full packets (§4.2.1)
	DefaultHeaderQueue    = 12 * 1024                 // equal-sized header queue (§4.2.1)
)

// sliceDuration is ε + r: one Opera slice, and one RotorNet slot.
const sliceDuration = DefaultEpsilon + DefaultReconfDelay

// realizationAttempts bounds how many topology realizations NewOpera tries
// before giving up on one whose every slice is connected (§3.3 notes the
// first realization virtually always works).
const realizationAttempts = 16

// Config parameterizes an Opera network build.
type Config struct {
	// NumRacks is N, the number of ToRs. Must be even and divisible by
	// NumSwitches.
	NumRacks int
	// HostsPerRack is d. Opera provisions ToRs 1:1, so d = u = k/2.
	HostsPerRack int
	// NumSwitches is the number of rotor circuit switches, equal to the
	// number of ToR uplinks u (one uplink per switch).
	NumSwitches int
	// GroupSize is the number of switches per stagger group (Appendix B).
	// Within a group reconfigurations are staggered; across groups they are
	// simultaneous, cutting cycle time by the number of groups. It must
	// divide NumSwitches. Zero selects min(NumSwitches, DefaultGroupSize).
	GroupSize int
	// GuardBand is the de-synchronization guard band around each
	// configuration (§3.5).
	GuardBand eventsim.Time
	// Seed drives topology randomization. Builds are deterministic per seed.
	Seed int64
	// MaxDiameter, when positive, additionally requires every topology
	// slice's expander (u−1 active matchings) to have diameter at most this
	// many ToR-to-ToR hops. §3.3: realizations are tested at design time
	// until one with good properties is found; §4.1 sizes ε assuming a
	// worst-case path length of 5 hops for the 108-rack network.
	MaxDiameter int
	// UseLifting selects FactorizeAuto (graph lifting for large N) instead
	// of direct factorization.
	UseLifting bool
}

// Opera is an immutable Opera topology realization plus its reconfiguration
// schedule. It answers structural queries (current matchings, per-slice
// expander graphs, direct circuits) for any slice index; packet simulation
// and routing live in other packages.
type Opera struct {
	cfg       Config
	matchings []Matching // N total; switch j owns [j*m, (j+1)*m)
	perSwitch int        // m = N / NumSwitches
	slices    int        // slices per cycle = GroupSize * m
	groups    int        // NumSwitches / GroupSize

	pairSwitch []int8 // lazily built: which switch's matching holds (a,b)
}

// NewOpera builds an Opera topology from cfg, retrying realizations until
// every topology slice is connected.
func NewOpera(cfg Config) (*Opera, error) {
	if cfg.NumRacks <= 0 || cfg.NumRacks%2 != 0 {
		return nil, fmt.Errorf("topology: NumRacks must be positive even, got %d", cfg.NumRacks)
	}
	if cfg.NumSwitches <= 0 || cfg.NumRacks%cfg.NumSwitches != 0 {
		return nil, fmt.Errorf("topology: NumSwitches %d must divide NumRacks %d", cfg.NumSwitches, cfg.NumRacks)
	}
	if cfg.HostsPerRack <= 0 {
		return nil, fmt.Errorf("topology: HostsPerRack must be positive, got %d", cfg.HostsPerRack)
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = DefaultGroupSize
		if cfg.NumSwitches < cfg.GroupSize {
			cfg.GroupSize = cfg.NumSwitches
		}
	}
	if cfg.NumSwitches%cfg.GroupSize != 0 {
		return nil, fmt.Errorf("topology: GroupSize %d must divide NumSwitches %d", cfg.GroupSize, cfg.NumSwitches)
	}

	for attempt := 0; attempt < realizationAttempts; attempt++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(attempt)))
		var ms []Matching
		if cfg.UseLifting {
			ms = FactorizeAuto(cfg.NumRacks, rng)
		} else {
			ms = FactorizeComplete(cfg.NumRacks, rng)
		}
		o := &Opera{
			cfg:       cfg,
			matchings: ms,
			perSwitch: cfg.NumRacks / cfg.NumSwitches,
			groups:    cfg.NumSwitches / cfg.GroupSize,
		}
		o.slices = cfg.GroupSize * o.perSwitch
		if o.allSlicesConnected() {
			return o, nil
		}
	}
	return nil, fmt.Errorf("topology: no connected Opera realization found in %d attempts (N=%d, u=%d)",
		realizationAttempts, cfg.NumRacks, cfg.NumSwitches)
}

// MustNewOpera is NewOpera but panics on error, for tests and examples.
func MustNewOpera(cfg Config) *Opera {
	o, err := NewOpera(cfg)
	if err != nil {
		panic(err)
	}
	return o
}

// allSlicesConnected tests the realization at design time (§3.3): every
// slice's expander connected and, when asked, within MaxDiameter hops.
func (o *Opera) allSlicesConnected() bool {
	n, u := o.cfg.NumRacks, o.cfg.NumSwitches
	cells := make([]int32, n*u)
	peers := make([][]int32, n)
	for r := range peers {
		peers[r] = cells[r*u : (r+1)*u]
	}
	var bfs graph.BitBFS
	for s := 0; s < o.slices; s++ {
		o.SlicePeers(s, peers)
		diameter, connected := bfs.Diameter(peers)
		if !connected || (o.cfg.MaxDiameter > 0 && diameter > o.cfg.MaxDiameter) {
			return false
		}
	}
	return true
}

// SlicePeers fills peers[rack][sw] with the rack that uplink sw of rack
// reaches during slice s, or -1 when switch sw is transitioning (the drain
// rule, §3.1.1) or the matching entry is a self-loop: SliceGraph's edges,
// by port.
func (o *Opera) SlicePeers(slice int, peers [][]int32) {
	for sw := 0; sw < o.cfg.NumSwitches; sw++ {
		if o.IsTransitioning(sw, slice) {
			for _, row := range peers {
				row[sw] = -1
			}
			continue
		}
		m := o.SwitchMatching(sw, slice)
		for r, row := range peers {
			if peer := m.Peer(r); peer != r {
				row[sw] = int32(peer)
			} else {
				row[sw] = -1
			}
		}
	}
}

// Config returns the (defaulted) configuration the topology was built with.
func (o *Opera) Config() Config { return o.cfg }

// NumRacks returns N.
func (o *Opera) NumRacks() int { return o.cfg.NumRacks }

// NumHosts returns N × d.
func (o *Opera) NumHosts() int { return o.cfg.NumRacks * o.cfg.HostsPerRack }

// HostsPerRack returns d.
func (o *Opera) HostsPerRack() int { return o.cfg.HostsPerRack }

// Uplinks returns u, the number of rotor uplinks per ToR (= NumSwitches).
func (o *Opera) Uplinks() int { return o.cfg.NumSwitches }

// MatchingsPerSwitch returns N/u, the rotor switch port-map count the paper
// highlights as Opera's scalability advantage over O(N!) crossbars (§3.6.1).
func (o *Opera) MatchingsPerSwitch() int { return o.perSwitch }

// SlicesPerCycle returns the number of topology slices in one full cycle,
// after which the schedule repeats: GroupSize × N/u.
func (o *Opera) SlicesPerCycle() int { return o.slices }

// SliceDuration returns ε + r, the length of one topology slice (§4.1).
func (o *Opera) SliceDuration() eventsim.Time { return sliceDuration }

// ReconfDelay returns r, the circuit-switch reconfiguration delay.
func (o *Opera) ReconfDelay() eventsim.Time { return DefaultReconfDelay }

// PairWindowsPerCycle returns GroupSize: a pair's one matching is held for
// that many consecutive slices.
func (o *Opera) PairWindowsPerCycle() int { return o.cfg.GroupSize }

// CycleTime returns the time for every rack pair to have been directly
// connected: SlicesPerCycle × SliceDuration. For the paper's 108-rack
// network this is 10.8 ms (the paper reports 10.7 ms).
func (o *Opera) CycleTime() eventsim.Time {
	return eventsim.Time(o.slices) * o.SliceDuration()
}

// DutyCycle returns the fraction of time a circuit switch carries traffic:
// each switch loses r once per GroupSize slices.
func (o *Opera) DutyCycle() float64 {
	hold := eventsim.Time(o.cfg.GroupSize) * o.SliceDuration()
	return 1 - float64(DefaultReconfDelay)/float64(hold)
}

// SliceAt maps a simulation time to (slice index within cycle, absolute
// slice number, offset within the slice).
func (o *Opera) SliceAt(t eventsim.Time) (sliceInCycle int, absSlice int64, offset eventsim.Time) {
	d := o.SliceDuration()
	abs := int64(t / d)
	return int(abs % int64(o.slices)), abs, t % d
}

// SliceStart returns the start time of absolute slice s.
func (o *Opera) SliceStart(absSlice int64) eventsim.Time {
	return eventsim.Time(absSlice) * o.SliceDuration()
}

// Transitioning returns the switches that reconfigure during slice s: one
// per stagger group. Their circuits must not accept new traffic during s
// (the drain window) and go dark for the final r of the slice.
func (o *Opera) Transitioning(slice int) []int {
	slice = o.norm(slice)
	phase := slice % o.cfg.GroupSize
	out := make([]int, o.groups)
	for h := 0; h < o.groups; h++ {
		out[h] = h*o.cfg.GroupSize + phase
	}
	return out
}

// IsTransitioning reports whether switch sw reconfigures during slice s.
func (o *Opera) IsTransitioning(sw, slice int) bool {
	slice = o.norm(slice)
	return sw%o.cfg.GroupSize == slice%o.cfg.GroupSize
}

// MatchingOrdinal returns which of switch sw's matchings (0..m-1) is
// physically installed during slice s. During a transition slice the old
// matching is reported: the switch reconfigures at the end of the slice.
func (o *Opera) MatchingOrdinal(sw, slice int) int {
	slice = o.norm(slice)
	phase := sw % o.cfg.GroupSize
	completed := 0
	if slice > phase {
		completed = (slice-phase-1)/o.cfg.GroupSize + 1
	}
	return completed % o.perSwitch
}

// SwitchMatching returns the matching installed on switch sw during slice s.
func (o *Opera) SwitchMatching(sw, slice int) Matching {
	return o.matchings[sw*o.perSwitch+o.MatchingOrdinal(sw, slice)]
}

// Matchings returns all N matchings; switch j owns the contiguous block
// [j*m, (j+1)*m). The caller must not modify them.
func (o *Opera) Matchings() []Matching { return o.matchings }

// SliceGraph returns the expander implemented during slice s for
// low-latency traffic: the union of the matchings of all switches that are
// not transitioning in s (the paper's "u−1 active matchings" guarantee).
func (o *Opera) SliceGraph(slice int) *graph.Graph {
	g := graph.New(o.cfg.NumRacks)
	for sw := 0; sw < o.cfg.NumSwitches; sw++ {
		if o.IsTransitioning(sw, slice) {
			continue
		}
		m := o.SwitchMatching(sw, slice)
		for i := 0; i < m.N(); i++ {
			if j := m.Peer(i); j > i {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// FullSliceGraph returns the union of all u installed matchings during
// slice s, including the transitioning switch's (usable by traffic that
// completes before the reconfiguration; used for path-length analysis with
// the paper's "one potentially down" caveat handled by SliceGraph).
func (o *Opera) FullSliceGraph(slice int) *graph.Graph {
	g := graph.New(o.cfg.NumRacks)
	for sw := 0; sw < o.cfg.NumSwitches; sw++ {
		m := o.SwitchMatching(sw, slice)
		for i := 0; i < m.N(); i++ {
			if j := m.Peer(i); j > i {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// DirectSwitch returns the switch whose installed matching directly
// connects racks a and b during slice s and is usable for bulk traffic
// (i.e. not transitioning), or -1 if none. This is the bulk-traffic routing
// query: "which uplink gives a one-hop path this slice?"
func (o *Opera) DirectSwitch(slice, a, b int) int {
	if a == b {
		return -1
	}
	for sw := 0; sw < o.cfg.NumSwitches; sw++ {
		if o.IsTransitioning(sw, slice) {
			continue
		}
		if o.SwitchMatching(sw, slice).Peer(a) == b {
			return sw
		}
	}
	return -1
}

// DirectSwitchInstalled is DirectSwitch but includes transitioning
// switches: their old matching remains physically connected until the final
// r of the slice, so bulk traffic may still use it subject to the truncated
// BulkWindow (the paper's 98% duty cycle counts only r as lost).
func (o *Opera) DirectSwitchInstalled(slice, a, b int) int {
	if a == b {
		return -1
	}
	for sw := 0; sw < o.cfg.NumSwitches; sw++ {
		if o.SwitchMatching(sw, slice).Peer(a) == b {
			return sw
		}
	}
	return -1
}

// PairSwitch returns the rotor switch whose matching set contains the pair
// (a, b) — each pair appears in exactly one matching of the factorization —
// or -1 for a == b. The map is built lazily on first use.
func (o *Opera) PairSwitch(a, b int) int {
	if a == b {
		return -1
	}
	if o.pairSwitch == nil {
		n := o.cfg.NumRacks
		ps := make([]int8, n*n)
		for i := range ps {
			ps[i] = -1
		}
		for sw := 0; sw < o.cfg.NumSwitches; sw++ {
			for ord := 0; ord < o.perSwitch; ord++ {
				m := o.matchings[sw*o.perSwitch+ord]
				for x := 0; x < n; x++ {
					y := m.Peer(x)
					if y != x {
						ps[x*n+y] = int8(sw)
					}
				}
			}
		}
		o.pairSwitch = ps
	}
	return int(o.pairSwitch[a*o.cfg.NumRacks+b])
}

// BulkWindow returns the interval within slice s (offsets from slice start)
// during which bulk traffic may be admitted into switch sw's circuits.
//
// A circuit persists across the GroupSize slices of its hold, so guard
// bands (§3.5) apply only at the hold's boundaries: the first slice after a
// reconfiguration starts GuardBand late, and the transitioning slice ends
// ReconfDelay + GuardBand early (the simulator adds its own serialization
// drain margin on top). Mid-hold slices use their full duration — this is
// what yields the paper's ≈0.2% bulk capacity loss per µs of guard versus
// 1% for low-latency traffic, which pays the guard every slice.
// A zero-length (start >= end) window means no bulk this slice.
func (o *Opera) BulkWindow(sw, slice int) (start, end eventsim.Time) {
	g := o.cfg.GuardBand
	end = o.SliceDuration()
	// First slice of the hold: the switch reconfigured at this boundary
	// (it was transitioning during the previous slice).
	slice = o.norm(slice)
	prev := (slice - 1 + o.slices) % o.slices
	if o.IsTransitioning(sw, prev) {
		start = g
	}
	if o.IsTransitioning(sw, slice) {
		end = o.SliceDuration() - DefaultReconfDelay - g
	}
	if end < start {
		end = start
	}
	return start, end
}

// LowLatencyCapacityFactor returns the fraction of low-latency capacity
// surviving the guard band: latency-sensitive packets forgo the guard
// around every slice boundary, costing g/(ε+r) — 1% per µs at the paper's
// constants (§3.5).
func (o *Opera) LowLatencyCapacityFactor() float64 {
	return 1 - float64(o.cfg.GuardBand)/float64(o.SliceDuration())
}

// BulkCapacityFactor returns the fraction of a circuit's hold usable for
// bulk traffic: the hold of GroupSize slices loses the reconfiguration
// blackout r plus a guard band at each end — ≈0.2% per µs of guard at the
// paper's constants (§3.5).
func (o *Opera) BulkCapacityFactor() float64 {
	hold := eventsim.Time(o.cfg.GroupSize) * o.SliceDuration()
	usable := hold - DefaultReconfDelay - 2*o.cfg.GuardBand
	if usable < 0 {
		usable = 0
	}
	return float64(usable) / float64(hold)
}

// HostRack returns the rack of host h (hosts are numbered rack-major).
func (o *Opera) HostRack(h int) int { return h / o.cfg.HostsPerRack }

// RackHosts returns the host ID range [lo, hi) of rack r.
func (o *Opera) RackHosts(r int) (lo, hi int) {
	return r * o.cfg.HostsPerRack, (r + 1) * o.cfg.HostsPerRack
}

func (o *Opera) norm(slice int) int {
	s := slice % o.slices
	if s < 0 {
		s += o.slices
	}
	return s
}

// RelativeCycleSlices returns the cycle length in slices for a ToR radix k
// under the paper's scaling family N = 3k²/4 racks (648 hosts at k=12),
// with and without Appendix B grouping. Used by Figure 14.
func RelativeCycleSlices(k int, groupSize int) int {
	n := 3 * k * k / 4
	c := k / 2
	g := groupSize
	if g <= 0 || g > c {
		g = c // "no groups": a single stagger group of all switches
	}
	// cycle = G × N/c slices
	return g * n / c
}
