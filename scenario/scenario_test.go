package scenario_test

import (
	"context"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/scenario"
)

// sweep is a small cross-architecture, cross-seed batch: enough scenarios
// to keep four workers busy, small enough to finish in seconds.
func sweep() []scenario.Scenario {
	var scs []scenario.Scenario
	for _, kind := range []opera.Kind{
		opera.KindOpera, opera.KindExpander, opera.KindFoldedClos,
		opera.KindRotorNet, opera.KindRotorNetHybrid,
	} {
		for _, seed := range []int64{1, 2} {
			scs = append(scs, scenario.Scenario{
				Name:     kind.String(),
				Kind:     kind,
				Seed:     seed,
				Options:  []opera.Option{opera.WithAppTaggedBulk(true)},
				Sources:  []scenario.Source{scenario.Shuffle(12, 25_000, eventsim.Millisecond)},
				Duration: 4000 * eventsim.Millisecond,
			})
		}
	}
	return scs
}

// Parallel execution must produce byte-identical Results to sequential
// execution: every cluster owns its engine and randomness, so Results are
// a pure function of the Scenario values.
func TestRunScenariosDeterministicUnderParallelism(t *testing.T) {
	scs := sweep()
	sequential, err := scenario.RunScenarios(context.Background(), scs, scenario.Parallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := scenario.RunScenarios(context.Background(), scs, scenario.Parallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(sequential) != len(scs) || len(parallel) != len(scs) {
		t.Fatalf("result counts: sequential=%d parallel=%d want %d", len(sequential), len(parallel), len(scs))
	}
	for i := range scs {
		if !sequential[i].Equal(parallel[i]) {
			t.Errorf("scenario %d (%s seed %d): results diverge\n sequential: %+v\n parallel:   %+v",
				i, scs[i].Name, scs[i].Seed, sequential[i], parallel[i])
		}
		if sequential[i].Err != "" {
			t.Errorf("scenario %d (%s): %s", i, scs[i].Name, sequential[i].Err)
		}
		if !sequential[i].Completed {
			t.Errorf("scenario %d (%s): incomplete (%d/%d flows)",
				i, scs[i].Name, sequential[i].FlowsDone, sequential[i].FlowsTotal)
		}
	}
}

// Re-running the same Scenario must reproduce the same Result exactly —
// the per-seed determinism RunScenarios' parallel guarantee rests on.
func TestRunIsDeterministicPerSeed(t *testing.T) {
	sc := scenario.Scenario{
		Name:     "opera",
		Kind:     opera.KindOpera,
		Seed:     3,
		Sources:  []scenario.Source{scenario.Shuffle(12, 25_000, 0)},
		Duration: 4000 * eventsim.Millisecond,
	}
	a := scenario.Run(sc)
	b := scenario.Run(sc)
	if !a.Equal(b) {
		t.Fatalf("same scenario, different results:\n a: %+v\n b: %+v", a, b)
	}
	if a.Err != "" || !a.Completed {
		t.Fatalf("run failed: %+v", a)
	}
	if a.FlowsTotal == 0 || a.ThroughputGbps <= 0 {
		t.Fatalf("implausible result: %+v", a)
	}
}

// A failed build surfaces through Result.Err, not an error return.
func TestRunScenariosBuildError(t *testing.T) {
	scs := []scenario.Scenario{{
		Name:    "bad",
		Kind:    opera.KindOpera,
		Seed:    1,
		Options: []opera.Option{opera.WithRacks(15)}, // Opera needs even racks
	}}
	results, err := scenario.RunScenarios(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == "" {
		t.Fatal("expected build error in Result.Err")
	}
}

// Cancellation skips unstarted scenarios and reports ctx.Err.
func TestRunScenariosCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scs := sweep()
	results, err := scenario.RunScenarios(ctx, scs, scenario.Parallelism(2))
	if err == nil {
		t.Fatal("expected context error")
	}
	skipped := 0
	for _, r := range results {
		if r.Err == context.Canceled.Error() {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no scenarios marked cancelled")
	}
}

// ForEachCluster hands every finished cluster to the callback
// (concurrently, per-index); a failed build reaches it with a nil cluster.
func TestForEachCluster(t *testing.T) {
	scs := sweep()[:4]
	scs = append(scs, scenario.Scenario{
		Name:    "bad",
		Kind:    opera.KindOpera,
		Seed:    1,
		Options: []opera.Option{opera.WithRacks(15)},
	})
	seen := make([]bool, len(scs))
	called := make([]bool, len(scs))
	results, err := scenario.ForEachCluster(context.Background(), scs,
		func(i int, cl *opera.Cluster, res scenario.Result) {
			called[i], seen[i] = true, cl != nil
		}, scenario.Parallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs[:4] {
		if !seen[i] {
			t.Errorf("callback missed scenario %d", i)
		}
		if results[i].Err != "" {
			t.Errorf("scenario %d: %s", i, results[i].Err)
		}
	}
	if !called[4] || seen[4] {
		t.Errorf("failed build: callback called=%v with a cluster=%v, want called without one", called[4], seen[4])
	}
	if results[4].Err == "" {
		t.Error("failed build missing Err")
	}
}

// CollectScenarios returns the finished clusters for inspection.
func TestCollectScenarios(t *testing.T) {
	scs := sweep()[:2]
	clusters, results, err := scenario.CollectScenarios(context.Background(), scs, scenario.Parallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, cl := range clusters {
		if cl == nil {
			t.Fatalf("cluster %d missing", i)
		}
		done, total := cl.Metrics().DoneCount()
		if done != results[i].FlowsDone || total != results[i].FlowsTotal {
			t.Fatalf("cluster %d: metrics %d/%d, result %d/%d",
				i, done, total, results[i].FlowsDone, results[i].FlowsTotal)
		}
	}
}
