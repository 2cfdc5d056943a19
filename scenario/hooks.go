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

// eventSeedSalt decorrelates the fault-schedule generator from the
// topology and workload generators, which consume Scenario.Seed directly.
const eventSeedSalt = 0x5ca1ab1e

// schedule hands one fault event to the injector. Target errors (a switch
// target on the expander, a tier the fabric lacks) surface from the
// injector itself, wrapped with the event's name. fail-random-links fails
// the fraction of physical cables it names, chosen uniformly (the sampling
// of §5.5's link-failure sweeps) from rng, the Scenario-seeded generator:
// the same Scenario fails the same links. The sample space is the
// injector's Links() universe — one coordinate per physical cable on every
// fabric (the expander deduplicates its two-ended naming; the Clos spans
// both cable tiers), so the fraction counts cables, not endpoints.
func schedule(inj *sim.Faults, rng *rand.Rand, es EventSpec) error {
	if err := es.check(); err != nil {
		return err
	}
	if es.At < 0 {
		return fmt.Errorf("scenario: event %s at negative time %v", es.name(), es.At)
	}
	var err error
	switch es.Op {
	case "recover":
		err = inj.Recover(es.Target, es.At)
	case "fail-random-links":
		links := inj.Links()
		k := min(int(es.Fraction*float64(len(links))+0.5), len(links))
		for _, idx := range rng.Perm(len(links))[:k] {
			if err = inj.Inject(links[idx], sim.DownFault(), es.At); err != nil {
				break
			}
		}
	default:
		err = inj.Inject(es.Target, es.Fault, es.At)
	}
	if err != nil {
		return fmt.Errorf("scenario: %s: %w", es.name(), err)
	}
	return nil
}

// name renders the event for error text.
func (es EventSpec) name() string {
	switch es.Op {
	case "recover":
		return fmt.Sprintf("recover(%v)", es.Target)
	case "fail-random-links":
		return fmt.Sprintf("fail-random-links(%g)", es.Fraction)
	}
	return fmt.Sprintf("inject(%v,%v)", es.Target, es.Fault)
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

// startProbes starts the Scenario's probes on a freshly built cluster. The
// returned series are filled in as the simulation runs.
func startProbes(cl *opera.Cluster, sc Scenario) ([]ProbeSeries, error) {
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
