package scenario_test

import (
	"context"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
	"github.com/opera-net/opera/scenario"
)

// Gray-failure schedules at the scenario layer: lossy, degraded and
// flapping links are part of the deterministic Scenario contract.

// graySweep is a batch mixing every gray fault kind with clean cuts,
// across two fabrics.
func graySweep() []scenario.Scenario {
	return []scenario.Scenario{
		mustScenario(scenario.Spec{
			Name:    "opera-gray",
			Network: "opera",
			Seed:    7,
			Events: []scenario.EventSpec{
				{At: 100 * eventsim.Microsecond, Target: sim.FlatLink(2, 1), Fault: sim.Fault{Kind: sim.FaultLossy, Rate: 0.3}},
				{At: 200 * eventsim.Microsecond, Target: sim.FlatLink(5, 0), Fault: sim.Fault{Kind: sim.FaultDegraded, RateFraction: 0.5}},
				{At: 300 * eventsim.Microsecond, Target: sim.FlatLink(9, 3), Fault: sim.Fault{Kind: sim.FaultFlapping, Up: eventsim.Millisecond, Down: eventsim.Millisecond}},
				{At: 400 * eventsim.Microsecond, Target: sim.FlatLink(1, 1)},
				{At: 5 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(2, 1)},
				{At: 5 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(9, 3)},
			},
			Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 12, FlowBytes: 25_000, Stagger: eventsim.Millisecond}},
			Duration: 4000 * eventsim.Millisecond,
		}),
		mustScenario(scenario.Spec{
			Name:    "clos-gray",
			Network: "foldedclos",
			Seed:    7,
			Events: []scenario.EventSpec{
				{At: 100 * eventsim.Microsecond, Target: sim.FlatLink(0, 1), Fault: sim.Fault{Kind: sim.FaultLossy, Rate: 0.5}},
				{At: 200 * eventsim.Microsecond, Target: sim.FlatLink(3, 0), Fault: sim.Fault{Kind: sim.FaultFlapping, Up: 500 * eventsim.Microsecond, Down: 500 * eventsim.Microsecond}},
				{At: 6 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(3, 0)},
			},
			Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 12, FlowBytes: 25_000, Stagger: eventsim.Millisecond}},
			Duration: 4000 * eventsim.Millisecond,
		}),
	}
}

// Gray faults preserve the runner's core guarantee: byte-identical
// Results at any parallelism. The lossy draws come from per-link seeded
// generators, so scheduling order cannot perturb them.
func TestGrayFaultDeterminismUnderParallelism(t *testing.T) {
	scs := graySweep()
	seq, err := scenario.RunScenarios(context.Background(), scs, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := scenario.RunScenarios(context.Background(), scs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		if seq[i].Err != "" {
			t.Fatalf("scenario %d (%s): %s", i, scs[i].Spec.Name, seq[i].Err)
		}
		if !seq[i].Equal(par[i]) {
			t.Errorf("scenario %d (%s): gray-fault results diverge across parallelism", i, scs[i].Spec.Name)
		}
		if !seq[i].Completed {
			t.Errorf("scenario %d (%s): incomplete (%d/%d flows)",
				i, scs[i].Spec.Name, seq[i].FlowsDone, seq[i].FlowsTotal)
		}
	}
}

// A flap cycle that is recovered before any flow arrives leaves no
// residue: the faulted run's flow metrics match the no-fault baseline
// exactly (tables rebuild to the healthy state, impairments clear, and
// nothing was queued on the flapping cable). SimEvents differs — the
// flap transitions themselves — so the comparison is per-field, not
// Result.Equal.
func TestFlapRecoveryRestoresBaselineFaultFree(t *testing.T) {
	// Flows arrive strictly after the flap is recovered at 5 ms.
	late := make([]workload.FlowSpec, 0, 24)
	for _, f := range workload.Shuffle(12, 25_000, eventsim.Millisecond, 1) {
		f.Arrival += 6 * eventsim.Millisecond
		late = append(late, f)
	}
	mk := func(events []scenario.EventSpec) scenario.Scenario {
		return scenario.Scenario{
			Spec: scenario.Spec{Name: "flap-baseline", Network: "opera", Seed: 1,
				Events: events, Duration: 4000 * eventsim.Millisecond},
			Sources: []scenario.Source{func(scenario.Env) workload.Source { return workload.FromSpecs(late) }},
		}
	}
	base := scenario.Run(mk(nil))
	flapped := scenario.Run(mk([]scenario.EventSpec{
		{At: 200 * eventsim.Microsecond, Target: sim.FlatLink(4, 2), Fault: sim.Fault{Kind: sim.FaultFlapping, Up: 700 * eventsim.Microsecond, Down: 900 * eventsim.Microsecond}},
		{At: 5 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(4, 2)},
	}))
	if base.Err != "" || flapped.Err != "" {
		t.Fatalf("errs: base=%q flapped=%q", base.Err, flapped.Err)
	}
	if !base.Completed || !flapped.Completed {
		t.Fatalf("completion: base=%v flapped=%v", base.Completed, flapped.Completed)
	}
	if flapped.FlowsDone != base.FlowsDone || flapped.FlowsTotal != base.FlowsTotal {
		t.Fatalf("flow counts diverge: base %d/%d, flapped %d/%d",
			base.FlowsDone, base.FlowsTotal, flapped.FlowsDone, flapped.FlowsTotal)
	}
	if flapped.All != base.All {
		t.Fatalf("FCT stats diverge after full recovery:\n base:    %+v\n flapped: %+v", base.All, flapped.All)
	}
	if flapped.ThroughputGbps != base.ThroughputGbps {
		t.Fatalf("throughput diverges after full recovery: base %g, flapped %g",
			base.ThroughputGbps, flapped.ThroughputGbps)
	}
}

// The folded Clos runs a full failure-figure-style scenario end to end:
// random cable failures across both tiers plus an aggregation-switch
// outage with recovery, under a real workload — flows complete, traffic
// moves, and the Result is parallelism-independent.
func TestClosFailureFigureScenario(t *testing.T) {
	mk := func() []scenario.Scenario {
		return []scenario.Scenario{mustScenario(scenario.Spec{
			Name:    "clos-failure-figure",
			Network: "foldedclos",
			Seed:    3,
			Events: []scenario.EventSpec{
				{At: 200 * eventsim.Microsecond, Op: "fail-random-links", Fraction: 0.04},
				{At: 400 * eventsim.Microsecond, Target: sim.TierSwitchTarget(sim.ClosTierAgg, 1)},
				{At: 8 * eventsim.Millisecond, Op: "recover", Target: sim.TierSwitchTarget(sim.ClosTierAgg, 1)},
			},
			Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 16, FlowBytes: 25_000, Stagger: eventsim.Millisecond}},
			Duration: 4000 * eventsim.Millisecond,
		})}
	}
	seq, err := scenario.RunScenarios(context.Background(), mk(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := scenario.RunScenarios(context.Background(), mk(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res := seq[0]
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if !res.Completed || res.FlowsDone != res.FlowsTotal {
		t.Fatalf("faulted Clos run incomplete: %d/%d", res.FlowsDone, res.FlowsTotal)
	}
	if res.ThroughputGbps <= 0 {
		t.Fatalf("faulted Clos moved no traffic: %+v", res)
	}
	if !res.Equal(par[0]) {
		t.Fatal("Clos failure-figure scenario not deterministic across parallelism")
	}
}
