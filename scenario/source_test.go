package scenario_test

import (
	"context"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/workload"
	"github.com/opera-net/opera/scenario"
)

// sourceSweep exercises the streaming workload surface across
// architectures: lazy Poisson, a tagged two-source mix, incast bursts,
// and a tagged bulk shuffle, each at two seeds. (The folded Clos is left
// to the shuffle sweep — its 192 hosts dominate race-detector time.)
func sourceSweep() []scenario.Scenario {
	var scs []scenario.Scenario
	for _, kind := range []opera.Kind{opera.KindOpera, opera.KindExpander} {
		for _, seed := range []int64{1, 2} {
			scs = append(scs,
				scenario.Scenario{
					Name: "poisson-" + kind.String(),
					Kind: kind,
					Seed: seed,
					// Fixed-size flows keep the arrival rate high enough for a
					// short window (heavy-tailed means imply few arrivals).
					Sources:  []scenario.Source{scenario.Poisson(workload.Fixed(100_000), 0.02, 4*eventsim.Millisecond, 0)},
					Duration: 2000 * eventsim.Millisecond,
				},
				scenario.Scenario{
					Name: "mixed-" + kind.String(),
					Kind: kind,
					Seed: seed,
					Sources: []scenario.Source{
						scenario.TagSource("bulk", scenario.BulkSource(scenario.Shuffle(8, 20_000, eventsim.Millisecond))),
						scenario.TagSource("web", scenario.Poisson(workload.Websearch(), 0.01, 4*eventsim.Millisecond, 200_000)),
					},
					Duration: 2000 * eventsim.Millisecond,
				},
				scenario.Scenario{
					Name:     "incast-" + kind.String(),
					Kind:     kind,
					Seed:     seed,
					Sources:  []scenario.Source{scenario.Incast(8, 20_000, eventsim.Millisecond, 4)},
					Duration: 2000 * eventsim.Millisecond,
				})
		}
	}
	return scs
}

// Source-driven scenarios keep the runner's core guarantee: identical
// Results at any parallelism (this test also runs under -race in CI's
// fast lane).
func TestSourceScenarioDeterminismUnderParallelism(t *testing.T) {
	scs := sourceSweep()
	sequential, err := scenario.RunScenarios(context.Background(), scs, scenario.Parallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := scenario.RunScenarios(context.Background(), scs, scenario.Parallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		if sequential[i].Err != "" {
			t.Fatalf("scenario %d (%s): %s", i, scs[i].Name, sequential[i].Err)
		}
		if !sequential[i].Equal(parallel[i]) {
			t.Errorf("scenario %d (%s seed %d): results diverge\n sequential: %+v\n parallel:   %+v",
				i, scs[i].Name, scs[i].Seed, sequential[i], parallel[i])
		}
		if !sequential[i].Completed {
			t.Errorf("scenario %d (%s): incomplete (%d/%d flows)",
				i, scs[i].Name, sequential[i].FlowsDone, sequential[i].FlowsTotal)
		}
		if sequential[i].FlowsTotal == 0 {
			t.Errorf("scenario %d (%s): no flows", i, scs[i].Name)
		}
	}
}

// Rerunning a Source scenario reproduces the same Result exactly — the
// per-seed determinism the parallel guarantee rests on.
func TestSourceScenarioDeterministicPerSeed(t *testing.T) {
	sc := sourceSweep()[1] // the two-source mixed scenario on Opera
	a := scenario.Run(sc)
	b := scenario.Run(sc)
	if a.Err != "" {
		t.Fatal(a.Err)
	}
	if !a.Equal(b) {
		t.Fatalf("same scenario, different results:\n a: %+v\n b: %+v", a, b)
	}
	if len(a.ByTag) != 2 {
		t.Fatalf("ByTag = %v, want bulk+web", a.ByTag)
	}
}

// Two Sources — a materialized pattern and a lazy stream — compose on one
// Scenario.
func TestWorkloadAndSourcesCompose(t *testing.T) {
	res := scenario.Run(scenario.Scenario{
		Name: "both",
		Kind: opera.KindOpera,
		Seed: 1,
		Sources: []scenario.Source{
			scenario.TagSource("legacy", scenario.Shuffle(4, 10_000, 0)),
			scenario.TagSource("stream", scenario.Poisson(workload.Fixed(50_000), 0.02, 2*eventsim.Millisecond, 0)),
		},
		Duration: 2000 * eventsim.Millisecond,
	})
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.ByTag["legacy"].FlowsTotal != 4*3 || res.ByTag["stream"].FlowsTotal == 0 {
		t.Fatalf("composition lost a side: %+v", res.ByTag)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %d/%d", res.FlowsDone, res.FlowsTotal)
	}
}
