package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"github.com/opera-net/opera/internal/eventsim"
)

// This file is the whole runtime fault mechanism: coordinates (Target),
// fault descriptors (Fault), and Faults — the one injector every
// fabric shares. The model: a fabric is a set of cables, each joining two
// nodes (a ToR or a tier-qualified switch), and a cable is usable iff the
// cable and both its end nodes are up. A fabric contributes only its
// coordinate map and its reaction to a state change (faultMap, built in
// rotor_fabric.go, expander_faults.go and clos_faults.go; Opera's reaction
// is failures.go); everything else is written once, here.
//
// Coordinates are fabric-interpreted. Flat fabrics (Opera, RotorNet, the
// expander) name links as {Tier: 0, Switch: rack, Port: uplink}; the
// folded Clos names its two cable tiers explicitly (ClosTierToR,
// ClosTierAgg) and accepts Tier 0 as an alias of the ToR-uplink tier so
// flat schedules run unchanged. Switch targets carry a tier too: Tier 0 is
// the rotor plane on Opera/RotorNet; the Clos requires an explicit tier
// (ClosTierAgg or ClosTierCore), and the expander — which has no fabric
// switches at all — rejects switch targets with ErrUnsupportedTarget.

// Target is the injection coordinate — one link, one ToR or one fabric
// switch — and, as plain data, the fault schedule's wire form: scenario
// specs carry it through gob and JSON field for field. Build one with
// FlatLink, ToRTarget, SwitchTarget or TierSwitchTarget, or as a literal.
type Target struct {
	// Kind is "link", "tor" or "switch".
	Kind TargetKind
	// Tier qualifies the coordinate on multi-tier fabrics. For a link it is
	// the cable tier: 0 is the flat {rack, uplink} plane every fabric
	// interprets, and the folded Clos adds ClosTierToR and ClosTierAgg. For
	// a switch it is the switch plane: 0 is the fabric's default, and the
	// Clos requires ClosTierAgg or ClosTierCore.
	Tier int
	// Switch and Port name a link: the rack or switch whose uplink the
	// cable is, and the uplink.
	Switch int
	Port   int
	// ID is the rack (Kind "tor") or switch (Kind "switch") index.
	ID int
}

// TargetKind discriminates what a Target names.
type TargetKind string

const (
	// TargetLink names one physical cable.
	TargetLink TargetKind = "link"
	// TargetToR names a whole top-of-rack switch (all its fabric cables).
	TargetToR TargetKind = "tor"
	// TargetSwitch names a fabric switch: a rotor switch on Opera and
	// RotorNet (Tier 0), an aggregation or core switch on the Clos
	// (ClosTierAgg / ClosTierCore).
	TargetSwitch TargetKind = "switch"
)

// FlatLink names a link in the flat fabrics' {rack, uplink} coordinate
// space: Opera and RotorNet's rack↔rotor-switch cables, the expander's
// rack↔neighbor-slot cables, and (normalized to ClosTierToR) a Clos ToR's
// uplink.
func FlatLink(rack, uplink int) Target { return Target{Kind: TargetLink, Switch: rack, Port: uplink} }

// Clos link and switch tiers. Tier 1 cables are ToR uplinks (Switch is
// the ToR index), tier 2 cables are aggregation-switch uplinks (Switch is
// the agg index). Switch targets use ClosTierAgg and ClosTierCore; a Clos
// ToR is addressed with ToRTarget like on every other fabric.
const (
	ClosTierToR  = 1
	ClosTierAgg  = 2
	ClosTierCore = 3
)

// ToRTarget targets a whole top-of-rack switch.
func ToRTarget(rack int) Target { return Target{Kind: TargetToR, ID: rack} }

// SwitchTarget targets a fabric switch on the default switch plane
// (Opera/RotorNet rotor switches). Multi-tier fabrics require
// TierSwitchTarget.
func SwitchTarget(sw int) Target { return Target{Kind: TargetSwitch, ID: sw} }

// TierSwitchTarget targets a switch on an explicit tier (the folded
// Clos: ClosTierAgg or ClosTierCore).
func TierSwitchTarget(tier, sw int) Target {
	return Target{Kind: TargetSwitch, Tier: tier, ID: sw}
}

// String renders the target; a tier-0 link prints in the flat form.
func (t Target) String() string {
	switch t.Kind {
	case TargetLink:
		if t.Tier == 0 {
			return fmt.Sprintf("link(rack=%d,up=%d)", t.Switch, t.Port)
		}
		return fmt.Sprintf("link(tier=%d,sw=%d,port=%d)", t.Tier, t.Switch, t.Port)
	case TargetToR:
		return fmt.Sprintf("tor(%d)", t.ID)
	case TargetSwitch:
		if t.Tier == 0 {
			return fmt.Sprintf("switch(%d)", t.ID)
		}
		return fmt.Sprintf("switch(tier=%d,%d)", t.Tier, t.ID)
	}
	return fmt.Sprintf("target(kind=%q)", t.Kind)
}

// FaultKind discriminates fault descriptors. The empty kind is a clean
// cut, stored as FaultDown once injected.
type FaultKind string

const (
	// FaultDown is a clean cut: the target goes dark until recovered.
	FaultDown FaultKind = "down"
	// FaultLossy is a gray failure: the link stays up but drops each
	// transmitted packet independently with probability Rate.
	FaultLossy FaultKind = "lossy"
	// FaultDegraded is a gray failure: the link stays up but serializes
	// at RateFraction of its nominal rate.
	FaultDegraded FaultKind = "degraded"
	// FaultFlapping cycles the target down for Down, up for Up,
	// repeating until recovered.
	FaultFlapping FaultKind = "flapping"
)

// Fault describes what goes wrong at a target, as plain data like Target.
// Build with DownFault, LossyFault, DegradedFault or FlappingFault, or as
// a literal (the zero value is a clean cut).
type Fault struct {
	Kind FaultKind
	// Rate is the per-packet drop probability of a lossy link, in (0,1].
	Rate float64
	// RateFraction is the fraction of nominal serialization rate a
	// degraded link retains, in (0,1).
	RateFraction float64
	// Up and Down are the phase lengths of a flapping target.
	Up, Down eventsim.Time
}

// DownFault is a clean cut.
func DownFault() Fault { return Fault{Kind: FaultDown} }

// LossyFault drops each transmitted packet with probability rate while
// the link stays nominally up (transports see unexplained loss, not a
// dead cable).
func LossyFault(rate float64) Fault { return Fault{Kind: FaultLossy, Rate: rate} }

// DegradedFault derates the link to the given fraction of its nominal
// serialization rate (a slow port: dirty optics, a failing transceiver).
func DegradedFault(fraction float64) Fault {
	return Fault{Kind: FaultDegraded, RateFraction: fraction}
}

// FlappingFault cycles the target: down for down, up for up, repeating
// from the injection time until Recover cancels the cycle.
func FlappingFault(up, down eventsim.Time) Fault {
	return Fault{Kind: FaultFlapping, Up: up, Down: down}
}

// String renders the descriptor.
func (f Fault) String() string {
	switch f.Kind {
	case "":
		return string(FaultDown)
	case FaultLossy:
		return fmt.Sprintf("lossy(%g)", f.Rate)
	case FaultDegraded:
		return fmt.Sprintf("degraded(%g)", f.RateFraction)
	case FaultFlapping:
		return fmt.Sprintf("flapping(up=%v,down=%v)", f.Up, f.Down)
	}
	return string(f.Kind)
}

// Validate checks the descriptor's kind and parameters.
func (f Fault) Validate() error {
	switch f.Kind {
	case "", FaultDown:
		return nil
	case FaultLossy:
		if !(f.Rate > 0 && f.Rate <= 1) { // also rejects NaN
			return fmt.Errorf("sim: lossy fault rate %g must be in (0,1]", f.Rate)
		}
		return nil
	case FaultDegraded:
		if !(f.RateFraction > 0 && f.RateFraction < 1) {
			return fmt.Errorf("sim: degraded fault rate fraction %g must be in (0,1)", f.RateFraction)
		}
		return nil
	case FaultFlapping:
		if f.Up <= 0 || f.Down <= 0 {
			return fmt.Errorf("sim: flapping fault phases (up=%v, down=%v) must be positive", f.Up, f.Down)
		}
		return nil
	}
	return fmt.Errorf("sim: unknown fault kind %q (want down, lossy, degraded or flapping)", f.Kind)
}

// ErrUnsupportedTarget marks a target kind a fabric cannot express (the
// expander has no fabric switches; the Clos has no Tier-0 switch plane).
// Test with errors.Is.
var ErrUnsupportedTarget = errors.New("fault target unsupported on this fabric")

// faultMap is everything a fabric contributes to the fault mechanism: its
// coordinate map and its reaction rule. Faults derives the rest from it.
// Nodes are numbered ToRs first (ToR r is node r), then each switch plane
// in order.
type faultMap struct {
	fabric string // architecture name, for error text
	tors   int
	// links are the cable coordinate planes; links[0] is the flat
	// {rack, uplink} plane that FlatLink and LinkUp address.
	links    []linkPlane
	switches []switchPlane
	// cables lists every physical cable once, in Links() order.
	cables []cable
	// react is the fabric's reaction rule, run inside the engine after
	// every state flip with the canonical target and the cables whose
	// usability it governs. Nil when forwarding reads the usable table
	// live and nothing else needs doing (RotorNet).
	react func(t Target, cables []int32, down bool)
}

// linkPlane is one tier of cable coordinates: Switch ∈ [0,n) is the rack
// or switch whose uplink the cable is, Port ∈ [0,ports) the uplink.
type linkPlane struct {
	tier     int  // the Target.Tier naming the plane
	flat     bool // Tier 0 names it too (the Clos's ToR-uplink tier)
	n, ports int
	swName   string // "rack", "agg", … for error text
	portName string // "rotor switch", "neighbor slot", …
	base     int    // the plane's first slot in the usable table (newFaults sets it)
}

// switchPlane is one tier of fabric switches: switch targets address it
// and cables end at its nodes.
type switchPlane struct {
	tier, n int
	name    string
	base    int // the plane's first node (newFaults sets it)
}

// cable is one physical cable.
type cable struct {
	id    Target   // canonical name
	alias Target   // its name from the other end (expander); zero when it has one name
	ends  [2]int32 // end nodes
	// ports transmit onto the cable: ports[0] from the id end, ports[1]
	// back (nil on rotor fabrics, whose far end is an optical switch).
	ports [2]*Port
	slots [2]int32 // usable-table slots of id and alias, the latter -1 when absent (newFaults sets them)
}

// Faults schedules runtime failures and recoveries into a live fabric and
// owns its only link-state table. Every fabric builds one where it wires
// its ports and hands it out through Network.Faults; what differs per
// fabric is the coordinate map and the reaction rule documented next to
// each fabric's faultMap.
//
// Inject validates the target and descriptor synchronously — bad
// coordinates or an unsupported target kind return an error before
// anything is scheduled — and then schedules the fault to take effect at
// the given virtual time. Recover clears every effect on the target (down
// state, gray impairments, an active flap cycle) at the given time. A
// cable with two names (the expander's, one per end; a Clos ToR uplink's
// flat and tiered forms) is one target under either. All methods are only
// safe from the engine goroutine.
type Faults struct {
	eng   *eventsim.Engine
	seed  int64
	m     faultMap
	ports int // links[0].ports: LinkUp's row stride

	slotCable []int32   // usable-table slot → cable
	incident  [][]int32 // node → the cables ending at it, in cable order
	cut       []bool    // per cable: the cable itself is cut
	nodeDown  []bool    // per node: the ToR or switch is down
	// usable is the one table forwarding reads: per coordinate slot,
	// whether the cable there and both its end nodes are up.
	usable []bool

	// Per element: every cable in cable order, then every node (ToRs, then
	// each switch plane in tier order) — the canonical coordinate order.
	// Both are allocated when the first fault is scheduled.
	//
	// flapGen cancels flap cycles: each new down, flap or recovery on an
	// element bumps its generation at its scheduled time, and a flap
	// transition whose generation is stale stops rescheduling.
	flapGen []uint64
	// active is the fault currently applied to each element, under its
	// canonical target, maintained at fire time — latest fault wins,
	// Recover zeroes it — so it reflects what the fabric sees, not what has
	// merely been scheduled.
	active []ActiveFault

	strandedProbe func() int64

	// Lost counts packets that reached a dead hop — sailed into a failed
	// circuit, or found no live next hop — plus control and low-latency
	// packets drained from failed cables' queues (bulk-class drains land
	// in PortStats.BulkDrop). Transports recover them by retransmission.
	Lost uint64
}

func newFaults(eng *eventsim.Engine, seed int64, m faultMap) *Faults {
	f := &Faults{eng: eng, seed: seed, m: m, ports: m.links[0].ports}
	slots := 0
	for i := range m.links {
		m.links[i].base = slots
		slots += m.links[i].n * m.links[i].ports
	}
	nodes := m.tors
	for i := range m.switches {
		m.switches[i].base = nodes
		nodes += m.switches[i].n
	}
	f.slotCable = make([]int32, slots)
	f.incident = make([][]int32, nodes)
	f.cut = make([]bool, len(m.cables))
	f.nodeDown = make([]bool, nodes)
	f.usable = make([]bool, slots)
	for i := range f.usable {
		f.usable[i] = true
	}
	for ci := range m.cables {
		c := &m.cables[ci]
		c.slots = [2]int32{f.linkPlane(c.id.Tier).slot(c.id), -1}
		f.slotCable[c.slots[0]] = int32(ci)
		if c.alias.Kind != "" {
			c.slots[1] = f.linkPlane(c.alias.Tier).slot(c.alias)
			f.slotCable[c.slots[1]] = int32(ci)
		}
		for _, e := range c.ends {
			f.incident[e] = append(f.incident[e], int32(ci))
		}
	}
	return f
}

// linkPlane finds the cable plane a link tier names, nil if none.
func (f *Faults) linkPlane(tier int) *linkPlane {
	for i := range f.m.links {
		if p := &f.m.links[i]; p.tier == tier || (tier == 0 && p.flat) {
			return p
		}
	}
	return nil
}

// slot maps an in-range coordinate on the plane to its usable-table slot.
func (p *linkPlane) slot(l Target) int32 { return int32(p.base + l.Switch*p.ports + l.Port) }

// LinkUp reports whether the flat-plane cable at {rack, uplink} is usable:
// the cable intact and both its end nodes up.
func (f *Faults) LinkUp(rack, uplink int) bool { return f.usable[rack*f.ports+uplink] }

// Links enumerates the fabric's physical cables, one canonical link Target
// each, in deterministic order — the sampling space for random-failure
// sweeps. (The expander's {rack, slot} space names every cable from both
// ends; sampling it raw would fail twice the requested fraction.)
func (f *Faults) Links() []Target {
	out := make([]Target, len(f.m.cables))
	for i := range f.m.cables {
		out[i] = f.m.cables[i].id
	}
	return out
}

// resolved is a validated target: what a state flip or impairment on it
// touches.
type resolved struct {
	t     Target   // canonical form; a link target names its cable by cable.id
	elem  int32    // the cable, or len(cables) + the node
	link  Target   // link targets: the coordinate as written, on its plane's own tier
	ports [2]*Port // link targets: the cable's ports, the written end's first
}

// resolve validates a target against the coordinate map without mutating
// anything.
func (f *Faults) resolve(t Target) (resolved, error) {
	var r resolved
	inRange := func(what string, v, n int) error {
		if v < 0 || v >= n {
			return fmt.Errorf("sim: %v: %s %d out of range [0,%d)", t, what, v, n)
		}
		return nil
	}
	switch t.Kind {
	case TargetLink:
		p := f.linkPlane(t.Tier)
		if p == nil {
			return r, fmt.Errorf("sim: %v: %s has no cable tier %d", t, f.m.fabric, t.Tier)
		}
		if err := inRange(p.swName, t.Switch, p.n); err != nil {
			return r, err
		}
		if err := inRange(p.portName, t.Port, p.ports); err != nil {
			return r, err
		}
		r.link = Target{Kind: TargetLink, Tier: p.tier, Switch: t.Switch, Port: t.Port}
		s := p.slot(r.link)
		r.elem = f.slotCable[s]
		c := &f.m.cables[r.elem]
		r.t, r.ports = c.id, c.ports
		if s == c.slots[1] {
			r.ports[0], r.ports[1] = c.ports[1], c.ports[0]
		}
	case TargetToR:
		if err := inRange("rack", t.ID, f.m.tors); err != nil {
			return r, err
		}
		r.elem, r.t = int32(len(f.cut)+t.ID), ToRTarget(t.ID)
	case TargetSwitch:
		var p *switchPlane
		var have []string
		for i := range f.m.switches {
			sp := &f.m.switches[i]
			if sp.tier == t.Tier {
				p = sp
			}
			have = append(have, fmt.Sprintf("tier %d = %s", sp.tier, sp.name))
		}
		if p == nil {
			hint := "it has no fabric switches; use a link or ToR target"
			if have != nil {
				hint = "its switch planes are " + strings.Join(have, ", ")
			}
			return r, fmt.Errorf("sim: %v on %s: %w (%s)", t, f.m.fabric, ErrUnsupportedTarget, hint)
		}
		if err := inRange(p.name, t.ID, p.n); err != nil {
			return r, err
		}
		r.elem, r.t = int32(len(f.cut)+p.base+t.ID), TierSwitchTarget(t.Tier, t.ID)
	default:
		return r, fmt.Errorf("sim: %v: unknown target kind", t)
	}
	return r, nil
}

// setDown flips a target's own state, refreshes the usable table for the
// cables it governs, and hands the change to the fabric's reaction rule.
func (f *Faults) setDown(r *resolved, down bool) {
	var touched []int32
	if node := int(r.elem) - len(f.cut); node < 0 {
		f.cut[r.elem] = down
		touched = []int32{r.elem}
	} else {
		f.nodeDown[node] = down
		touched = f.incident[node]
	}
	for _, ci := range touched {
		c := &f.m.cables[ci]
		up := !f.cut[ci] && !f.nodeDown[c.ends[0]] && !f.nodeDown[c.ends[1]]
		f.usable[c.slots[0]] = up
		if c.slots[1] >= 0 {
			f.usable[c.slots[1]] = up
		}
	}
	if f.m.react != nil {
		f.m.react(r.t, touched, down)
	}
}

// dropQueued empties the ports of cables that just went down, with
// failed-cable semantics (Port.DropAll): the static fabrics' share of a
// reaction rule. Packets queued on a dead cable are lost; a transmission
// already on the wire still delivers.
func (f *Faults) dropQueued(cables []int32) {
	for _, ci := range cables {
		for _, pt := range f.m.cables[ci].ports {
			f.Lost += pt.DropAll()
		}
	}
}

// lose counts and releases a packet that reached a hop with no live next
// hop.
func (f *Faults) lose(p *Packet) {
	f.Lost++
	p.Release()
}

// linkSeed derives a per-link, per-endpoint deterministic seed for lossy
// draws: stable across runs and independent of scheduling parallelism,
// decorrelated across links and from the workload generators (which
// consume the fabric seed directly). It is keyed by the coordinate as
// written, with end 0 the written end, so a two-named cable draws a
// different loss stream under each name — by design: renaming the key
// would silently change every recorded lossy run.
func (f *Faults) linkSeed(l Target, end int) int64 {
	const grayFaultSalt = int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15
	z := f.seed ^ grayFaultSalt
	z ^= int64(l.Tier)<<48 ^ int64(l.Switch)<<24 ^ int64(l.Port)<<8 ^ int64(end)
	// splitmix64 finalizer to spread the structured bits.
	z = (z ^ (z >> 30)) * -0x40a7b892e31b1a47
	z = (z ^ (z >> 27)) * -0x6b2fb644ecceee15
	return z ^ (z >> 31)
}

// faultOpKind discriminates the scheduled fault transitions a faultOp
// can carry.
type faultOpKind uint8

const (
	opGray      faultOpKind = iota // apply lossy/degraded impairments
	opDown                         // cut the target
	opFlapStart                    // begin a flap cycle (first transition is down)
	opFlapStep                     // one flap transition; reschedules itself
	opRecover                      // clear down state, impairments, flap cycle
)

// faultOp is the pre-bound eventsim.Handler for one scheduled fault
// transition: one allocation per Inject/Recover call instead of one
// closure per event. A flap cycle reuses its single faultOp across every
// transition — the engine guarantees an event fires at most once, and a
// flap schedules exactly one successor, so the op is never doubly
// pending.
type faultOp struct {
	resolved
	f     *Faults
	kind  faultOpKind
	fault Fault
	gen   uint64 // flap-cycle generation; stale ⇒ the cycle is over
	down  bool   // phase the next flap transition applies
}

// OnEvent implements eventsim.Handler.
func (op *faultOp) OnEvent(any) {
	f := op.f
	switch op.kind {
	case opGray:
		for end, pt := range op.ports {
			if pt == nil {
				continue
			}
			if op.fault.Kind == FaultLossy {
				pt.SetLossRate(op.fault.Rate, f.linkSeed(op.link, end))
			} else {
				pt.SetRateDerating(op.fault.RateFraction)
			}
		}
		f.active[op.elem] = ActiveFault{op.t, op.fault}
	case opDown:
		f.flapGen[op.elem]++ // an explicit cut overrides an active flap
		f.setDown(&op.resolved, true)
		f.active[op.elem] = ActiveFault{op.t, op.fault}
	case opFlapStart:
		// The generation is claimed at fire time, not at Inject time, so
		// an earlier-scheduled fault on the same target stays overridden.
		f.flapGen[op.elem]++
		op.kind, op.gen, op.down = opFlapStep, f.flapGen[op.elem], true
		f.active[op.elem] = ActiveFault{op.t, op.fault}
		op.flapStep()
	case opFlapStep:
		op.flapStep()
	case opRecover:
		f.flapGen[op.elem]++
		for _, pt := range op.ports {
			if pt != nil {
				pt.ClearImpairments()
			}
		}
		f.setDown(&op.resolved, false)
		f.active[op.elem] = ActiveFault{}
	}
}

// flapStep applies one flap transition and schedules the next; a stale
// generation (a newer fault or a recovery reached the target) ends the
// cycle without touching the fabric.
func (op *faultOp) flapStep() {
	f := op.f
	if f.flapGen[op.elem] != op.gen {
		return
	}
	f.setDown(&op.resolved, op.down)
	d := op.fault.Up
	if op.down {
		d = op.fault.Down
	}
	op.down = !op.down
	f.eng.AfterCall(d, op, nil)
}

// Inject schedules the fault on the target at the given virtual time.
func (f *Faults) Inject(t Target, fault Fault, at eventsim.Time) error {
	if err := fault.Validate(); err != nil {
		return err
	}
	if at < 0 {
		return fmt.Errorf("sim: inject %v at negative time %v", t, at)
	}
	r, err := f.resolve(t)
	if err != nil {
		return err
	}
	kind := opDown
	switch fault.Kind {
	case "":
		fault.Kind = FaultDown
	case FaultLossy, FaultDegraded:
		kind = opGray
	case FaultFlapping:
		kind = opFlapStart
	}
	if kind != opDown && t.Kind != TargetLink {
		return fmt.Errorf("sim: %v fault applies to links, not %v targets", fault.Kind, t.Kind)
	}
	f.schedule(at, &faultOp{resolved: r, f: f, kind: kind, fault: fault})
	return nil
}

// Recover schedules the target's down state, gray impairments and any
// flap cycle to clear at the given virtual time.
func (f *Faults) Recover(t Target, at eventsim.Time) error {
	if at < 0 {
		return fmt.Errorf("sim: recover %v at negative time %v", t, at)
	}
	r, err := f.resolve(t)
	if err != nil {
		return err
	}
	f.schedule(at, &faultOp{resolved: r, f: f, kind: opRecover})
	return nil
}

// schedule queues a validated transition, sizing the per-element state
// the first time: a fault-free fabric never allocates it.
func (f *Faults) schedule(at eventsim.Time, op *faultOp) {
	if f.active == nil {
		n := len(f.cut) + len(f.nodeDown)
		f.flapGen, f.active = make([]uint64, n), make([]ActiveFault, n)
	}
	f.eng.AtCall(at, op, nil)
}

// SetStrandedProbe wires StrandedBytes to a live transport-layer probe.
// The cluster installs RotorLB's stranded-VLB accounting on circuit
// fabrics when it is built; fabrics without RotorLB leave it unset.
func (f *Faults) SetStrandedProbe(fn func() int64) { f.strandedProbe = fn }

// StrandedBytes reports VLB bytes currently parked at relay racks that
// cannot reach the bytes' final destination over any direct circuit —
// the known RotorLB model gap: such bytes are not re-offloaded to a
// third rack, they wait for recovery (see rotorlb.LB.StrandedBytes).
// Zero when no probe is wired or nothing is stranded.
func (f *Faults) StrandedBytes() int64 {
	if f.strandedProbe == nil {
		return 0
	}
	return f.strandedProbe()
}

// ActiveFault pairs a target with the fault currently applied to it — one
// row of the observability plane's fault-state view.
type ActiveFault struct {
	Target Target
	Fault  Fault
}

// ActiveFaults returns the faults currently applied to the fabric, in the
// canonical coordinate order — links, then ToRs, then switches; within a
// kind by (tier, ID, switch, port) — each under its target's canonical
// name. A fault is listed from the virtual time its injection fires until
// its recovery fires; per target the latest-applied fault wins, exactly
// mirroring the fabric's state. A flapping target is listed for the whole
// cycle, through both phases.
func (f *Faults) ActiveFaults() []ActiveFault {
	var out []ActiveFault
	for _, a := range f.active {
		if a.Fault.Kind != "" {
			out = append(out, a)
		}
	}
	return out
}

// grayRand builds the deterministic generator behind a lossy port. Kept
// here (not in port.go) so the seeding policy lives with the rest of the
// fault machinery.
func grayRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
