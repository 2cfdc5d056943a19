package scenario_test

import (
	"context"
	"testing"

	opera "github.com/opera-net/opera"
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
		{
			Name: "opera-gray",
			Kind: opera.KindOpera,
			Seed: 7,
			Events: []scenario.EventSpec{
				{At: 100 * eventsim.Microsecond, Target: sim.FlatLink(2, 1), Fault: sim.LossyFault(0.3)},
				{At: 200 * eventsim.Microsecond, Target: sim.FlatLink(5, 0), Fault: sim.DegradedFault(0.5)},
				{At: 300 * eventsim.Microsecond, Target: sim.FlatLink(9, 3), Fault: sim.FlappingFault(eventsim.Millisecond, eventsim.Millisecond)},
				{At: 400 * eventsim.Microsecond, Target: sim.FlatLink(1, 1)},
				{At: 5 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(2, 1)},
				{At: 5 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(9, 3)},
			},
			Sources:  []scenario.Source{scenario.Shuffle(12, 25_000, eventsim.Millisecond)},
			Duration: 4000 * eventsim.Millisecond,
		},
		{
			Name: "clos-gray",
			Kind: opera.KindFoldedClos,
			Seed: 7,
			Events: []scenario.EventSpec{
				{At: 100 * eventsim.Microsecond, Target: sim.FlatLink(0, 1), Fault: sim.LossyFault(0.5)},
				{At: 200 * eventsim.Microsecond, Target: sim.FlatLink(3, 0), Fault: sim.FlappingFault(500*eventsim.Microsecond, 500*eventsim.Microsecond)},
				{At: 6 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(3, 0)},
			},
			Sources:  []scenario.Source{scenario.Shuffle(12, 25_000, eventsim.Millisecond)},
			Duration: 4000 * eventsim.Millisecond,
		},
	}
}

// Gray faults preserve the runner's core guarantee: byte-identical
// Results at any parallelism. The lossy draws come from per-link seeded
// generators, so scheduling order cannot perturb them.
func TestGrayFaultDeterminismUnderParallelism(t *testing.T) {
	scs := graySweep()
	seq, err := scenario.RunScenarios(context.Background(), scs, scenario.Parallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := scenario.RunScenarios(context.Background(), scs, scenario.Parallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		if seq[i].Err != "" {
			t.Fatalf("scenario %d (%s): %s", i, scs[i].Name, seq[i].Err)
		}
		if !seq[i].Equal(par[i]) {
			t.Errorf("scenario %d (%s): gray-fault results diverge across parallelism", i, scs[i].Name)
		}
		if !seq[i].Completed {
			t.Errorf("scenario %d (%s): incomplete (%d/%d flows)",
				i, scs[i].Name, seq[i].FlowsDone, seq[i].FlowsTotal)
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
			Name: "flap-baseline", Kind: opera.KindOpera, Seed: 1,
			Sources:  []scenario.Source{scenario.Fixed(late)},
			Events:   events,
			Duration: 4000 * eventsim.Millisecond,
		}
	}
	base := scenario.Run(mk(nil))
	flapped := scenario.Run(mk([]scenario.EventSpec{
		{At: 200 * eventsim.Microsecond, Target: sim.FlatLink(4, 2), Fault: sim.FlappingFault(700*eventsim.Microsecond, 900*eventsim.Microsecond)},
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
		return []scenario.Scenario{{
			Name: "clos-failure-figure",
			Kind: opera.KindFoldedClos,
			Seed: 3,
			Events: []scenario.EventSpec{
				{At: 200 * eventsim.Microsecond, Op: "fail-random-links", Fraction: 0.04},
				{At: 400 * eventsim.Microsecond, Target: sim.TierSwitchTarget(sim.ClosTierAgg, 1)},
				{At: 8 * eventsim.Millisecond, Op: "recover", Target: sim.TierSwitchTarget(sim.ClosTierAgg, 1)},
			},
			Sources:  []scenario.Source{scenario.Shuffle(16, 25_000, eventsim.Millisecond)},
			Duration: 4000 * eventsim.Millisecond,
		}}
	}
	seq, err := scenario.RunScenarios(context.Background(), mk(), scenario.Parallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := scenario.RunScenarios(context.Background(), mk(), scenario.Parallelism(4))
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
