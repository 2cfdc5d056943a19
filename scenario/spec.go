// Spec is the one description of a run: opera-sim's flags, the figure
// runners and sweep grids all build Specs, Spec.Scenario() is the one
// place a description is validated and its traffic resolved into
// Sources, and Collect builds the cluster from it. A Spec is plain data —
// strings, numbers, nested structs — that gob/JSON round-trips exactly,
// so the sweep coordinator can partition grids of Specs into shards and
// ship them to worker processes; every worker resolves the identical
// Scenario value, which makes a sharded run a pure reordering of the same
// deterministic per-scenario computations a local RunScenarios performs.
package scenario

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// Spec describes one Scenario as plain serializable data. The zero value
// of every sizing field keeps opera.New's defaults (the examples' 16×4
// small testbed).
type Spec struct {
	// Name labels the scenario in its Result.
	Name string
	// Network is the architecture name: "opera", "expander", "foldedclos",
	// "rotornet" or "rotornet-hybrid" (opera.ParseKind).
	Network string
	// Seed seeds topology, workload and fault randomness.
	Seed int64
	// Duration is the RunUntilDone deadline in virtual time; the run ends
	// earlier once every flow completes or the event queue drains.
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
// data. Op selects the operation; unused fields are ignored.
type EventSpec struct {
	// At is the virtual time the event fires.
	At eventsim.Time
	// Op is "inject" (the default when empty), "recover", or
	// "fail-random-links".
	Op string
	// Target locates the fault for inject and recover. Coordinates are
	// fabric-interpreted, so the injector checks them when the run starts.
	Target sim.Target
	// Fault describes what goes wrong for inject ops (zero value = a
	// clean down).
	Fault sim.Fault
	// Fraction is the cable fraction for fail-random-links.
	Fraction float64
}

// TargetSpec and FaultSpec alias sim.Target and sim.Fault, which are
// themselves the wire form; they remain only because bench/ names them.
type (
	TargetSpec = sim.Target
	FaultSpec  = sim.Fault
)

// check validates the event's time, op, kind strings and fault
// parameters; the fabric checks coordinates when the run schedules it.
func (es EventSpec) check() error {
	if es.At < 0 {
		return fmt.Errorf("scenario: event %s at negative time %v", es.name(), es.At)
	}
	switch es.Op {
	case "", "inject", "recover":
		switch es.Target.Kind {
		case sim.TargetLink, sim.TargetToR, sim.TargetSwitch:
		default:
			return fmt.Errorf("scenario: unknown target kind %q (want link, tor or switch)", es.Target.Kind)
		}
		if es.Op == "recover" {
			return nil
		}
		return es.Fault.Validate()
	case "fail-random-links":
		if !(es.Fraction >= 0 && es.Fraction <= 1) { // also rejects NaN
			return fmt.Errorf("scenario: fraction %g must be in [0,1]", es.Fraction)
		}
		return nil
	}
	return fmt.Errorf("scenario: unknown event op %q (want inject, recover or fail-random-links)", es.Op)
}

// SourceSpec describes one workload source. Type selects the generator;
// the other fields parameterize it. Fields a type does not read are
// ignored, but no numeric field may be negative.
type SourceSpec struct {
	// Type is one of the sourceForms names: "poisson", "mix" (the fixed
	// §5.2 blend: websearch and bulk-tagged datamining, equal weights, one
	// arrival process, flows tagged by component), "shuffle",
	// "permutation", "hotrack" (§5.6), "saturate" (Figure 10's underlay:
	// every host to its counterpart in every other rack, sized to fill
	// Window), "incast" or "replay".
	Type string

	// Dist names the flow-size distribution for poisson sources:
	// "datamining" (Fig. 1's heavy-tailed trace), "websearch" or "hadoop".
	Dist string
	// Load is the poisson or mix source's offered fraction of aggregate
	// host bandwidth, in (0, MaxLoad].
	Load float64
	// Window is the poisson, mix or saturate arrival window (arrivals stop
	// after it).
	Window eventsim.Time
	// MaxFlowBytes caps sampled poisson and mix flow sizes (0 = unlimited).
	MaxFlowBytes int64

	// FlowBytes sizes each shuffle, permutation, hotrack or incast flow.
	FlowBytes int64
	// Stagger spreads shuffle arrivals.
	Stagger eventsim.Time
	// Participants caps how many hosts join the shuffle (0 = all), so one
	// shuffle runs unchanged on fabrics whose host counts differ.
	Participants int

	// Fanin, Period and Bursts shape the incast source.
	Fanin  int
	Period eventsim.Time
	Bursts int

	// Path is the replay source's trace file, one flow per line (see
	// workload.Replay). It is opened when a run starts; a malformed line or
	// a host outside the cluster fails that run's Result.
	Path string

	// MaxFlows caps how many flows the source yields (0 = no cap).
	MaxFlows int
	// Tag labels every flow of this source (Result.ByTag); empty = none.
	Tag string
	// Bulk application-tags every flow for bulk service (§3.4).
	Bulk bool
}

// RetentionSpec selects the metrics retention policy: the zero value is
// RetainAll (exact, unbounded memory); Sketch true is RetainSketch with
// the given sketch bound.
type RetentionSpec struct {
	Sketch bool
	// Alpha is the quantile sketches' relative-error bound (0 = 1%).
	Alpha float64
}

// MaxLoad is the ceiling on SourceSpec.Load. A load of 1 already drives
// every host link at line rate; far above it the mean inter-arrival gap
// falls below the 1 ns clock resolution and arrivals stop advancing
// virtual time, so a run would never reach its deadline.
const MaxLoad = 10

// dists names the flow-size distributions a SourceSpec can draw from.
var dists = map[string]func() *workload.FlowSizeDist{
	"datamining": workload.Datamining,
	"websearch":  workload.Websearch,
	"hadoop":     workload.Hadoop,
}

// sourceForms is the traffic vocabulary as a table: each SourceSpec.Type
// maps to the fields that must be set for it — one letter each, d: Dist,
// P: Path, the rest as listed in SourceSpec.check — and the builder, which
// runs once per run against the built cluster. The patterns resolve to
// materialized lists (workload.FromSpecs), which the cluster schedules in
// one shot.
var sourceForms = map[string]struct {
	needs string
	build func(ss SourceSpec, env Env) workload.Source
}{
	"poisson": {"dlw", func(ss SourceSpec, env Env) workload.Source {
		return workload.Mix(env.poisson(ss.Load, ss.Window),
			workload.MixComponent{Dist: dists[ss.Dist](), Weight: 1, MaxFlowBytes: ss.MaxFlowBytes})
	}},
	"mix": {"lw", func(ss SourceSpec, env Env) workload.Source {
		return workload.Mix(env.poisson(ss.Load, ss.Window),
			workload.MixComponent{Dist: workload.Websearch(), Weight: 0.5, Tag: "websearch", MaxFlowBytes: ss.MaxFlowBytes},
			workload.MixComponent{Dist: workload.Datamining(), Weight: 0.5, Tag: "datamining", Bulk: true, MaxFlowBytes: ss.MaxFlowBytes})
	}},
	"shuffle": {"b", func(ss SourceSpec, env Env) workload.Source {
		n := env.NumHosts
		if ss.Participants > 0 && ss.Participants < n {
			n = ss.Participants
		}
		return workload.FromSpecs(workload.Shuffle(n, ss.FlowBytes, ss.Stagger, env.Seed))
	}},
	"permutation": {"b", func(ss SourceSpec, env Env) workload.Source {
		return workload.FromSpecs(workload.Permutation(env.NumHosts, env.HostsPerRack, ss.FlowBytes, env.Seed))
	}},
	"hotrack": {"b", func(ss SourceSpec, env Env) workload.Source {
		return workload.FromSpecs(workload.HotRack(env.HostsPerRack, ss.FlowBytes))
	}},
	"saturate": {"w", func(ss SourceSpec, env Env) workload.Source {
		return workload.FromSpecs(workload.Saturate(env.NumHosts, env.HostsPerRack, ss.Window))
	}},
	"incast": {"fbpu", func(ss SourceSpec, env Env) workload.Source {
		return workload.Incast(workload.IncastConfig{NumHosts: env.NumHosts,
			Fanin: ss.Fanin, Bytes: ss.FlowBytes, Period: ss.Period, Bursts: ss.Bursts, Seed: env.Seed})
	}},
	// The file is opened per run, not per resolution, so one resolved
	// Scenario can run twice.
	"replay": {"P", func(ss SourceSpec, env Env) workload.Source { return workload.ReplayFile(ss.Path, env.NumHosts) }},
}

// names lists a table's keys for an unknown-name error.
func names[V any](table map[string]V) string {
	return strings.Join(slices.Sorted(maps.Keys(table)), ", ")
}

// check range-checks the spec's fields: none may be negative or NaN, Load
// is bounded by MaxLoad, and every field the type needs must be set.
func (ss SourceSpec) check(needs string) error {
	for _, f := range []struct {
		letter byte
		name   string
		v      float64
	}{
		{'l', "Load", ss.Load}, {'w', "Window", float64(ss.Window)}, {'m', "MaxFlowBytes", float64(ss.MaxFlowBytes)},
		{'b', "FlowBytes", float64(ss.FlowBytes)}, {'s', "Stagger", float64(ss.Stagger)}, {'n', "Participants", float64(ss.Participants)},
		{'f', "Fanin", float64(ss.Fanin)}, {'p', "Period", float64(ss.Period)}, {'u', "Bursts", float64(ss.Bursts)},
		{'x', "MaxFlows", float64(ss.MaxFlows)},
	} {
		switch {
		case !(f.v >= 0): // negative or NaN
			return fmt.Errorf("%s %v must not be negative", f.name, f.v)
		case f.v == 0 && strings.IndexByte(needs, f.letter) >= 0:
			return fmt.Errorf("a %s source needs a positive %s", ss.Type, f.name)
		}
	}
	if ss.Load > MaxLoad { // also +Inf
		return fmt.Errorf("Load %v exceeds MaxLoad (%d)", ss.Load, MaxLoad)
	}
	if strings.Contains(needs, "d") && dists[ss.Dist] == nil {
		return fmt.Errorf("unknown flow-size distribution %q (want %s)", ss.Dist, names(dists))
	}
	if strings.Contains(needs, "P") {
		if _, err := os.Stat(ss.Path); err != nil {
			return fmt.Errorf("replay Path: %w", err)
		}
	}
	return nil
}

// source resolves the spec into a scenario Source.
func (ss SourceSpec) source() (Source, error) {
	form, ok := sourceForms[ss.Type]
	if !ok {
		return nil, fmt.Errorf("unknown source type %q (want %s)", ss.Type, names(sourceForms))
	}
	if err := ss.check(form.needs); err != nil {
		return nil, err
	}
	wrapped := ss.MaxFlows > 0 || ss.Bulk || ss.Tag != ""
	return func(env Env) workload.Source {
		inner := form.build(ss, env)
		src := inner
		if ss.MaxFlows > 0 {
			src = workload.Take(src, ss.MaxFlows)
		}
		if ss.Bulk {
			src = workload.BulkSource(src)
		}
		if ss.Tag != "" {
			src = workload.TagSource(ss.Tag, src)
		}
		// A wrapper hides a replay's Err and Close; keep them visible to
		// Collect.
		if e, ok := inner.(ending); ok && wrapped {
			return struct {
				workload.Source
				ending
			}{src, e}
		}
		return src
	}, nil
}

// Scenario validates the Spec and resolves its traffic into the Scenario
// it describes. The mapping is deterministic — two processes resolving
// equal Specs build clusters, workloads and retention identically — which
// is what lets a sharded sweep reproduce a local run byte-for-byte.
func (sp Spec) Scenario() (Scenario, error) {
	if _, err := opera.ParseKind(sp.Network); err != nil {
		return Scenario{}, err
	}
	if sp.Duration <= 0 {
		return Scenario{}, fmt.Errorf("scenario: spec %q: duration %v must be positive", sp.Name, sp.Duration)
	}
	if sp.MaxSliceDiameter < 0 {
		return Scenario{}, fmt.Errorf("scenario: spec %q: MaxSliceDiameter %d must not be negative", sp.Name, sp.MaxSliceDiameter)
	}
	if sp.Retention.Sketch {
		if err := (opera.SketchOptions{Alpha: sp.Retention.Alpha}).Validate(); err != nil {
			return Scenario{}, fmt.Errorf("scenario: spec %q: %w", sp.Name, err)
		}
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
	for i, es := range sp.Events {
		if err := es.check(); err != nil {
			return Scenario{}, fmt.Errorf("scenario: spec %q event %d: %w", sp.Name, i, err)
		}
	}
	return Scenario{Spec: sp, Sources: sources}, nil
}

// header is the start of the Spec's Result: its name, kind and seed, and
// the error naming an unknown Network.
func (sp Spec) header() (Result, error) {
	kind, err := opera.ParseKind(sp.Network)
	return Result{Name: sp.Name, Kind: kind, Seed: sp.Seed}, err
}

// options are the cluster options the Spec's seed, sizing and retention
// describe; a zero sizing field keeps opera.New's default.
func (sp Spec) options() []opera.Option {
	opts := []opera.Option{opera.WithSeed(sp.Seed)}
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
		opts = append(opts, opera.WithRetention(opera.RetainSketch(opera.SketchOptions{Alpha: sp.Retention.Alpha})))
	}
	return opts
}
