package scenario

import (
	"fmt"
	"math/rand"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
)

// This file is the Scenario hooks layer: a timed fault schedule and
// pluggable probes. Together with tagged sources they let the paper's
// beyond-FCT experiments — §5.2's app-tagged mixed workloads and §5.5's
// fault sweeps — be written as plain Scenario values and fanned out
// through RunScenarios like any other sweep.

// Event is one scheduled action on a running cluster: At names the virtual
// time, Action what happens. Build Events with the At constructor:
//
//	scenario.At(500*eventsim.Microsecond, scenario.FailLink(3, 2))
type Event struct {
	At     eventsim.Time
	Action Action
}

// At schedules an Action at the given virtual time.
func At(t eventsim.Time, a Action) Event { return Event{At: t, Action: a} }

// Action is a deferred operation on the cluster. Actions that draw
// randomness (FailRandomLinks) use a generator derived from the
// Scenario's seed, so a Scenario's fault schedule is as deterministic as
// its workload.
type Action struct {
	name  string
	apply func(cl *opera.Cluster, rng *rand.Rand, at eventsim.Time) error
}

func (a Action) String() string { return a.name }

// faultAction wraps an injector operation as an Action. Target errors (a
// switch target on the expander, a tier the fabric lacks) surface from the
// injector itself, wrapped with the action name.
func faultAction(name string, f func(inj *sim.Faults, rng *rand.Rand, at eventsim.Time) error) Action {
	return Action{name: name, apply: func(cl *opera.Cluster, rng *rand.Rand, at eventsim.Time) error {
		if err := f(cl.Faults(), rng, at); err != nil {
			return fmt.Errorf("scenario: %s: %w", name, err)
		}
		return nil
	}}
}

// Inject schedules an arbitrary structured fault — the mechanism behind
// the convenience constructors below:
//
//	scenario.At(t, scenario.Inject(
//		sim.TierSwitchTarget(sim.ClosTierCore, 3), sim.DownFault()))
func Inject(target sim.Target, fault sim.Fault) Action {
	return faultAction(fmt.Sprintf("inject(%v,%v)", target, fault),
		func(inj *sim.Faults, _ *rand.Rand, at eventsim.Time) error { return inj.Inject(target, fault, at) })
}

// Recover schedules the recovery of any previously injected fault on the
// target (down, gray, or flapping).
func Recover(target sim.Target) Action {
	return faultAction(fmt.Sprintf("recover(%v)", target),
		func(inj *sim.Faults, _ *rand.Rand, at eventsim.Time) error { return inj.Recover(target, at) })
}

// flat names the rack↔switch cable: a flat tier-0 link coordinate, which
// every fabric interprets — on the folded Clos it names a ToR uplink.
func flat(rack, sw int) sim.Target { return sim.LinkTarget(sim.FlatLink(rack, sw)) }

// FailLink fails the rack↔switch cable.
func FailLink(rack, sw int) Action { return Inject(flat(rack, sw), sim.DownFault()) }

// FailToR fails a whole ToR: its hosts drop off and its circuits go dark.
func FailToR(rack int) Action { return Inject(sim.ToRTarget(rack), sim.DownFault()) }

// FailSwitch fails a tier-0 fabric switch entirely (Opera/RotorNet: a
// rotor switch). Fabrics without tier-0 switches report
// sim.ErrUnsupportedTarget; multi-tier fabrics take
// Inject(sim.TierSwitchTarget(tier, id), sim.DownFault()).
func FailSwitch(sw int) Action { return Inject(sim.SwitchTarget(sw), sim.DownFault()) }

// LossyLink makes the rack↔switch cable drop the given fraction of
// packets that complete serialization (a gray failure: the link stays
// up and keeps attracting traffic).
func LossyLink(rack, sw int, rate float64) Action {
	return Inject(flat(rack, sw), sim.LossyFault(rate))
}

// DegradedLink derates the rack↔switch cable to the given fraction of
// line rate (a gray failure: serialization slows, nothing is dropped).
func DegradedLink(rack, sw int, fraction float64) Action {
	return Inject(flat(rack, sw), sim.DegradedFault(fraction))
}

// FlappingLink cycles the rack↔switch cable: down for down, then up for
// up, repeating until recovered.
func FlappingLink(rack, sw int, up, down eventsim.Time) Action {
	return Inject(flat(rack, sw), sim.FlappingFault(up, down))
}

// RecoverLink brings a failed rack↔switch cable back up (and clears any
// gray impairment or flap cycle on it).
func RecoverLink(rack, sw int) Action { return Recover(flat(rack, sw)) }

// RecoverToR brings a failed ToR back online.
func RecoverToR(rack int) Action { return Recover(sim.ToRTarget(rack)) }

// RecoverSwitch brings a failed tier-0 fabric switch back.
func RecoverSwitch(sw int) Action { return Recover(sim.SwitchTarget(sw)) }

// checkFraction validates a FailRandomLinks cable fraction.
func checkFraction(fraction float64) error {
	if !(fraction >= 0 && fraction <= 1) { // also rejects NaN
		return fmt.Errorf("scenario: fraction %g must be in [0,1]", fraction)
	}
	return nil
}

// FailRandomLinks fails the given fraction of physical cables, chosen
// uniformly (the sampling of §5.5's link-failure sweeps) from the
// Scenario-seeded generator: the same Scenario fails the same links. The
// sample space is the injector's Links() universe — one coordinate per
// physical cable on every fabric (the expander deduplicates its
// two-ended naming; the Clos spans both cable tiers), so the fraction
// counts cables, not endpoints.
func FailRandomLinks(fraction float64) Action {
	return faultAction(fmt.Sprintf("fail-random-links(%g)", fraction),
		func(inj *sim.Faults, rng *rand.Rand, at eventsim.Time) error {
			if err := checkFraction(fraction); err != nil {
				return err
			}
			links := inj.Links()
			k := int(fraction*float64(len(links)) + 0.5)
			if k > len(links) {
				k = len(links)
			}
			for _, idx := range rng.Perm(len(links))[:k] {
				if err := inj.Inject(sim.LinkTarget(links[idx]), sim.DownFault(), at); err != nil {
					return err
				}
			}
			return nil
		})
}

// Probe periodically samples a running cluster into a named time-series
// column of the Result. Build Probes with Sample.
type Probe struct {
	// Name labels the series in Result.Probes.
	Name string
	// Every is the sampling period: the probe fires at Every, 2·Every, …
	// up to the Scenario's Duration. Zero samples exactly once, at the
	// start of the run.
	Every eventsim.Time
	// Fn computes the sample. It runs inside the simulation (or, for
	// one-shot probes, immediately before it) and must only read.
	Fn func(cl *opera.Cluster, now eventsim.Time) float64
}

// Sample is a convenience constructor for Probe.
//
//	scenario.Sample("done_flows", eventsim.Millisecond,
//		func(cl *opera.Cluster, _ eventsim.Time) float64 {
//			done, _ := cl.Metrics().DoneCount()
//			return float64(done)
//		})
func Sample(name string, every eventsim.Time, fn func(cl *opera.Cluster, now eventsim.Time) float64) Probe {
	return Probe{Name: name, Every: every, Fn: fn}
}

// ProbeSeries is one probe's recorded samples, in firing order: sample i
// of a periodic probe was taken at virtual time (i+1)·Every; a one-shot
// probe (Every == 0) has a single sample from the start of the run.
type ProbeSeries struct {
	Name   string
	Every  eventsim.Time
	Values []float64
}

// eventSeedSalt decorrelates the fault-schedule generator from the
// topology and workload generators, which consume Scenario.Seed directly.
const eventSeedSalt = 0x5ca1ab1e

// applyHooks schedules the Scenario's fault events and starts its probes
// on a freshly built cluster. The returned series are filled in as the
// simulation runs.
func applyHooks(cl *opera.Cluster, sc Scenario) ([]ProbeSeries, error) {
	if len(sc.Events) > 0 {
		rng := rand.New(rand.NewSource(sc.Seed ^ eventSeedSalt))
		for _, ev := range sc.Events {
			if ev.At < 0 {
				return nil, fmt.Errorf("scenario: event %v at negative time %v", ev.Action, ev.At)
			}
			if ev.Action.apply == nil {
				return nil, fmt.Errorf("scenario: event at %v has no action", ev.At)
			}
			if err := ev.Action.apply(cl, rng, ev.At); err != nil {
				return nil, err
			}
		}
	}
	if len(sc.Probes) == 0 {
		return nil, nil
	}
	series := make([]ProbeSeries, len(sc.Probes))
	for i, p := range sc.Probes {
		if p.Fn == nil {
			return nil, fmt.Errorf("scenario: probe %q has no sample function", p.Name)
		}
		series[i] = ProbeSeries{Name: p.Name, Every: p.Every}
		if p.Every == 0 {
			series[i].Values = []float64{p.Fn(cl, cl.Engine().Now())}
			continue
		}
		if p.Every < 0 {
			return nil, fmt.Errorf("scenario: probe %q has negative period %v", p.Name, p.Every)
		}
		if p.Every <= sc.Duration {
			cl.Engine().AtCall(p.Every, &probeTick{cl: cl, probe: p, until: sc.Duration, series: &series[i]}, nil)
		}
	}
	return series, nil
}

// probeTick is one periodic probe's sampling handler: it records a sample
// and reschedules itself while the next one falls within the run.
type probeTick struct {
	cl     *opera.Cluster
	probe  Probe
	until  eventsim.Time
	series *ProbeSeries
}

func (t *probeTick) OnEvent(any) {
	eng := t.cl.Engine()
	t.series.Values = append(t.series.Values, t.probe.Fn(t.cl, eng.Now()))
	if next := eng.Now() + t.probe.Every; next <= t.until {
		eng.AtCall(next, t, nil)
	}
}
