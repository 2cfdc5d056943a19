// Spec is the declarative, serializable face of a Scenario: where a
// Scenario carries live function values (Sources, Events, Probes) that
// cannot cross a process boundary, a Spec is plain data — strings,
// numbers, nested structs — that gob/JSON round-trips exactly. The sweep
// coordinator partitions grids of Specs into shards, ships them to worker
// processes, and every worker reconstructs the identical Scenario value
// with Spec.Scenario(), so a sharded run is a pure reordering of the same
// deterministic per-scenario computations a local RunScenarios performs.
package scenario

import (
	"fmt"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// Spec describes one Scenario as plain serializable data. The zero value
// of every sizing field keeps opera.New's defaults (the examples' 16×4
// small testbed), mirroring how an Options-free Scenario behaves.
type Spec struct {
	// Name labels the scenario in its Result.
	Name string
	// Network is the architecture name ("opera", "expander", "foldedclos",
	// "rotornet", "rotornet-hybrid", or anything registered through
	// opera.RegisterKind).
	Network string
	// Seed seeds topology, workload and fault randomness (Scenario.Seed).
	Seed int64
	// Duration is the RunUntilDone deadline in virtual time.
	Duration eventsim.Time

	// Sizing (zero = opera.New default). For expanders Uplinks is the
	// fabric degree; for the folded Clos ClosK/ClosF are used instead.
	Racks        int
	HostsPerRack int
	Uplinks      int
	ClosK        int
	ClosF        int
	// AppTaggedBulk forces every flow to bulk service (§5.2).
	AppTaggedBulk bool
	// MaxSliceDiameter bounds Opera slice diameters (0 = no bound).
	MaxSliceDiameter int

	// Sources stream flows into the cluster, in order.
	Sources []SourceSpec

	// Events is the fault schedule, as plain data (gob/JSON round-trips
	// exactly), so sharded sweeps can run the failure figures.
	Events []EventSpec

	// Retention selects the metrics retention policy.
	Retention RetentionSpec
}

// EventSpec describes one scheduled fault event as plain serializable
// data — the declarative face of a scenario.Event. Op selects the
// operation; unused fields are ignored.
type EventSpec struct {
	// At is the virtual time the event fires.
	At eventsim.Time
	// Op is "inject" (the default when empty), "recover", or
	// "fail-random-links".
	Op string
	// Target locates the fault for inject and recover.
	Target TargetSpec
	// Fault describes what goes wrong for inject ops (zero value = a
	// clean down).
	Fault FaultSpec
	// Fraction is the cable fraction for fail-random-links.
	Fraction float64
}

// TargetSpec is the serializable form of a sim.Target.
type TargetSpec struct {
	// Kind is "link", "tor" or "switch".
	Kind string
	// Tier, Switch and Port form the link coordinate (Kind "link"):
	// tier 0 is the flat {rack, uplink} space every fabric interprets;
	// the folded Clos additionally takes its explicit cable tiers.
	Tier   int
	Switch int
	Port   int
	// ID is the rack (Kind "tor") or switch (Kind "switch") index; for
	// switches Tier qualifies the plane (0 = the fabric's default; the
	// Clos requires sim.ClosTierAgg or sim.ClosTierCore).
	ID int
}

// FaultSpec is the serializable form of a sim.Fault.
type FaultSpec struct {
	// Kind is "down" (the default when empty), "lossy", "degraded" or
	// "flapping".
	Kind string
	// Rate is the lossy per-packet drop probability, in (0,1].
	Rate float64
	// RateFraction is the degraded fraction of nominal rate, in (0,1).
	RateFraction float64
	// Up and Down are the flapping phase lengths.
	Up, Down eventsim.Time
}

// target resolves the spec into a sim.Target.
func (ts TargetSpec) target() (sim.Target, error) {
	switch ts.Kind {
	case "link":
		return sim.LinkTarget(sim.LinkID{Tier: ts.Tier, Switch: ts.Switch, Port: ts.Port}), nil
	case "tor":
		return sim.ToRTarget(ts.ID), nil
	case "switch":
		return sim.TierSwitchTarget(ts.Tier, ts.ID), nil
	default:
		return sim.Target{}, fmt.Errorf("scenario: unknown target kind %q (want link, tor or switch)", ts.Kind)
	}
}

// fault resolves the spec into a sim.Fault.
func (fs FaultSpec) fault() (sim.Fault, error) {
	switch fs.Kind {
	case "", "down":
		return sim.DownFault(), nil
	case "lossy":
		return sim.LossyFault(fs.Rate), nil
	case "degraded":
		return sim.DegradedFault(fs.RateFraction), nil
	case "flapping":
		return sim.FlappingFault(fs.Up, fs.Down), nil
	default:
		return sim.Fault{}, fmt.Errorf("scenario: unknown fault kind %q (want down, lossy, degraded or flapping)", fs.Kind)
	}
}

// Event resolves the spec into a scheduled Event. Coordinate validation
// is deferred to the injector at run time (it is fabric-interpreted);
// kind strings and fault parameters are checked here.
func (es EventSpec) Event() (Event, error) {
	switch es.Op {
	case "", "inject":
		t, err := es.Target.target()
		if err != nil {
			return Event{}, err
		}
		f, err := es.Fault.fault()
		if err != nil {
			return Event{}, err
		}
		if err := f.Validate(); err != nil {
			return Event{}, err
		}
		return At(es.At, Inject(t, f)), nil
	case "recover":
		t, err := es.Target.target()
		if err != nil {
			return Event{}, err
		}
		return At(es.At, Recover(t)), nil
	case "fail-random-links":
		if err := checkFraction(es.Fraction); err != nil {
			return Event{}, err
		}
		return At(es.At, FailRandomLinks(es.Fraction)), nil
	default:
		return Event{}, fmt.Errorf("scenario: unknown event op %q (want inject, recover or fail-random-links)", es.Op)
	}
}

// SourceSpec describes one streaming workload source. Type selects the
// generator; the other fields parameterize it (unused ones are ignored).
type SourceSpec struct {
	// Type is "poisson", "shuffle" or "incast".
	Type string

	// Dist names the flow-size distribution for poisson sources:
	// "datamining" (Fig. 1's heavy-tailed trace) or "websearch".
	Dist string
	// Load is the poisson source's offered fraction of aggregate host
	// bandwidth.
	Load float64
	// Window is the poisson arrival window (arrivals stop after it).
	Window eventsim.Time
	// MaxFlowBytes caps sampled poisson flow sizes (0 = unlimited).
	MaxFlowBytes int64

	// FlowBytes sizes each shuffle or incast flow.
	FlowBytes int64
	// Stagger spreads shuffle arrivals.
	Stagger eventsim.Time
	// Participants caps how many hosts join the shuffle (0 = all).
	Participants int

	// Fanin, Period and Bursts shape the incast source.
	Fanin  int
	Period eventsim.Time
	Bursts int

	// Tag labels every flow of this source (Result.ByTag); empty = none.
	Tag string
	// Bulk application-tags every flow for bulk service (§3.4).
	Bulk bool
}

// RetentionSpec selects the metrics retention policy: the zero value is
// RetainAll (exact, unbounded memory); Sketch true is RetainSketch with
// the given options (zero fields take telemetry defaults).
type RetentionSpec struct {
	Sketch bool
	// Alpha is the quantile sketches' relative-error bound (0 = 1%).
	Alpha float64
	// WindowBin / WindowBins shape the trailing throughput window
	// (0 = 1 ms × 128 bins).
	WindowBin  float64
	WindowBins int
}

// source resolves the spec into a scenario Source.
func (ss SourceSpec) source() (Source, error) {
	var src Source
	switch ss.Type {
	case "poisson":
		var dist *workload.FlowSizeDist
		switch ss.Dist {
		case "datamining":
			dist = workload.Datamining()
		case "websearch":
			dist = workload.Websearch()
		default:
			return nil, fmt.Errorf("scenario: unknown flow-size distribution %q (want datamining or websearch)", ss.Dist)
		}
		if !(ss.Load > 0) {
			return nil, fmt.Errorf("scenario: poisson source load %v must be positive", ss.Load)
		}
		if ss.Window <= 0 {
			return nil, fmt.Errorf("scenario: poisson source window %v must be positive", ss.Window)
		}
		src = Poisson(dist, ss.Load, ss.Window, ss.MaxFlowBytes)
	case "shuffle":
		if ss.FlowBytes <= 0 {
			return nil, fmt.Errorf("scenario: shuffle flow size %d must be positive", ss.FlowBytes)
		}
		src = Adapt(ShuffleN(ss.Participants, ss.FlowBytes, ss.Stagger))
	case "incast":
		if ss.Fanin <= 0 || ss.FlowBytes <= 0 || ss.Bursts <= 0 {
			return nil, fmt.Errorf("scenario: incast wants positive fanin, flow size and bursts (got %d, %d, %d)",
				ss.Fanin, ss.FlowBytes, ss.Bursts)
		}
		src = Incast(ss.Fanin, ss.FlowBytes, ss.Period, ss.Bursts)
	default:
		return nil, fmt.Errorf("scenario: unknown source type %q (want poisson, shuffle or incast)", ss.Type)
	}
	if ss.Bulk {
		src = BulkSource(src)
	}
	if ss.Tag != "" {
		src = TagSource(ss.Tag, src)
	}
	return src, nil
}

// Scenario resolves the Spec into the Scenario value it describes. The
// mapping is deterministic — two processes resolving equal Specs build
// clusters, workloads and retention identically — which is what lets a
// sharded sweep reproduce a local run byte-for-byte.
func (sp Spec) Scenario() (Scenario, error) {
	kind, err := opera.ParseKind(sp.Network)
	if err != nil {
		return Scenario{}, err
	}
	if sp.Duration <= 0 {
		return Scenario{}, fmt.Errorf("scenario: spec %q: duration %v must be positive", sp.Name, sp.Duration)
	}
	var opts []opera.Option
	if sp.Racks != 0 {
		opts = append(opts, opera.WithRacks(sp.Racks))
	}
	if sp.HostsPerRack != 0 {
		opts = append(opts, opera.WithHostsPerRack(sp.HostsPerRack))
	}
	if sp.Uplinks != 0 {
		opts = append(opts, opera.WithUplinks(sp.Uplinks))
	}
	if sp.ClosK != 0 || sp.ClosF != 0 {
		opts = append(opts, opera.WithClos(sp.ClosK, sp.ClosF))
	}
	if sp.AppTaggedBulk {
		opts = append(opts, opera.WithAppTaggedBulk(true))
	}
	if sp.MaxSliceDiameter != 0 {
		opts = append(opts, opera.WithMaxSliceDiameter(sp.MaxSliceDiameter))
	}
	if sp.Retention.Sketch {
		sketchOpts := opera.SketchOptions{
			Alpha:      sp.Retention.Alpha,
			WindowBin:  sp.Retention.WindowBin,
			WindowBins: sp.Retention.WindowBins,
		}
		if err := sketchOpts.Validate(); err != nil {
			return Scenario{}, fmt.Errorf("scenario: spec %q: %w", sp.Name, err)
		}
		opts = append(opts, opera.WithRetention(opera.RetainSketch(sketchOpts)))
	}
	if len(sp.Sources) == 0 {
		return Scenario{}, fmt.Errorf("scenario: spec %q has no sources", sp.Name)
	}
	sources := make([]Source, len(sp.Sources))
	for i, ss := range sp.Sources {
		src, err := ss.source()
		if err != nil {
			return Scenario{}, fmt.Errorf("scenario: spec %q source %d: %w", sp.Name, i, err)
		}
		sources[i] = src
	}
	var events []Event
	if len(sp.Events) > 0 {
		events = make([]Event, len(sp.Events))
		for i, es := range sp.Events {
			ev, err := es.Event()
			if err != nil {
				return Scenario{}, fmt.Errorf("scenario: spec %q event %d: %w", sp.Name, i, err)
			}
			events[i] = ev
		}
	}
	return Scenario{
		Name:     sp.Name,
		Kind:     kind,
		Options:  opts,
		Sources:  sources,
		Events:   events,
		Duration: sp.Duration,
		Seed:     sp.Seed,
	}, nil
}
