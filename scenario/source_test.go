package scenario_test

import (
	"context"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/workload"
	"github.com/opera-net/opera/scenario"
)

// fixedPoisson is Poisson arrivals of fixed-size flows: a Source written
// directly, since SourceSpec draws sizes only from the paper's traces.
func fixedPoisson(bytes int64, load float64, window eventsim.Time) scenario.Source {
	dist := workload.MustNewFlowSizeDist("fixed", []workload.CDFAnchor{
		{Bytes: float64(bytes) * (1 - 1e-9)}, {Bytes: float64(bytes), F: 1}})
	return func(env scenario.Env) workload.Source {
		return workload.Mix(workload.PoissonConfig{NumHosts: env.NumHosts, Load: load,
			Duration: window, Seed: env.Seed}, workload.MixComponent{Dist: dist, Weight: 1})
	}
}

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
					Spec: scenario.Spec{Name: "poisson-" + kind.String(), Network: kind.String(), Seed: seed,
						Duration: 2000 * eventsim.Millisecond},
					// Fixed-size flows keep the arrival rate high enough for a
					// short window (heavy-tailed means imply few arrivals).
					Sources: []scenario.Source{fixedPoisson(100_000, 0.02, 4*eventsim.Millisecond)},
				},
				mustScenario(scenario.Spec{
					Name:    "mixed-" + kind.String(),
					Network: kind.String(),
					Seed:    seed,
					Sources: []scenario.SourceSpec{
						{Type: "shuffle", Participants: 8, FlowBytes: 20_000, Stagger: eventsim.Millisecond, Bulk: true, Tag: "bulk"},
						{Type: "poisson", Dist: "websearch", Load: 0.01, Window: 4 * eventsim.Millisecond, MaxFlowBytes: 200_000, Tag: "web"},
					},
					Duration: 2000 * eventsim.Millisecond,
				}),
				mustScenario(scenario.Spec{
					Name:     "incast-" + kind.String(),
					Network:  kind.String(),
					Seed:     seed,
					Sources:  []scenario.SourceSpec{{Type: "incast", Fanin: 8, FlowBytes: 20_000, Period: eventsim.Millisecond, Bursts: 4}},
					Duration: 2000 * eventsim.Millisecond,
				}))
		}
	}
	return scs
}

// Source-driven scenarios keep the runner's core guarantee: identical
// Results at any parallelism (this test also runs under -race in CI's
// fast lane).
func TestSourceScenarioDeterminismUnderParallelism(t *testing.T) {
	scs := sourceSweep()
	sequential, err := scenario.RunScenarios(context.Background(), scs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := scenario.RunScenarios(context.Background(), scs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		if sequential[i].Err != "" {
			t.Fatalf("scenario %d (%s): %s", i, scs[i].Spec.Name, sequential[i].Err)
		}
		if !sequential[i].Equal(parallel[i]) {
			t.Errorf("scenario %d (%s seed %d): results diverge\n sequential: %+v\n parallel:   %+v",
				i, scs[i].Spec.Name, scs[i].Spec.Seed, sequential[i], parallel[i])
		}
		if !sequential[i].Completed {
			t.Errorf("scenario %d (%s): incomplete (%d/%d flows)",
				i, scs[i].Spec.Name, sequential[i].FlowsDone, sequential[i].FlowsTotal)
		}
		if sequential[i].FlowsTotal == 0 {
			t.Errorf("scenario %d (%s): no flows", i, scs[i].Spec.Name)
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
	sc := mustScenario(scenario.Spec{
		Name:     "both",
		Network:  "opera",
		Seed:     1,
		Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 4, FlowBytes: 10_000, Tag: "legacy"}},
		Duration: 2000 * eventsim.Millisecond,
	})
	stream := fixedPoisson(50_000, 0.02, 2*eventsim.Millisecond)
	sc.Sources = append(sc.Sources, func(env scenario.Env) workload.Source {
		return workload.TagSource("stream", stream(env))
	})
	res := scenario.Run(sc)
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
