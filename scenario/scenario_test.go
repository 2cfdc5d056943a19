package scenario_test

import (
	"context"
	"math"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/workload"
	"github.com/opera-net/opera/scenario"
)

// mustScenario resolves a Spec written as a test literal.
func mustScenario(sp scenario.Spec) scenario.Scenario {
	sc, err := sp.Scenario()
	if err != nil {
		panic(err)
	}
	return sc
}

// sweep is a small cross-architecture, cross-seed batch: enough scenarios
// to keep four workers busy, small enough to finish in seconds.
func sweep() []scenario.Scenario {
	var scs []scenario.Scenario
	for _, network := range []string{"opera", "expander", "foldedclos", "rotornet", "rotornet-hybrid"} {
		for _, seed := range []int64{1, 2} {
			scs = append(scs, mustScenario(scenario.Spec{
				Name:          network,
				Network:       network,
				Seed:          seed,
				AppTaggedBulk: true,
				Sources:       []scenario.SourceSpec{{Type: "shuffle", Participants: 12, FlowBytes: 25_000, Stagger: eventsim.Millisecond}},
				Duration:      4000 * eventsim.Millisecond,
			}))
		}
	}
	return scs
}

// Parallel execution must produce byte-identical Results to sequential
// execution: every cluster owns its engine and randomness, so Results are
// a pure function of the Scenario values.
func TestRunScenariosDeterministicUnderParallelism(t *testing.T) {
	scs := sweep()
	sequential, err := scenario.RunScenarios(context.Background(), scs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := scenario.RunScenarios(context.Background(), scs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sequential) != len(scs) || len(parallel) != len(scs) {
		t.Fatalf("result counts: sequential=%d parallel=%d want %d", len(sequential), len(parallel), len(scs))
	}
	for i := range scs {
		if !sequential[i].Equal(parallel[i]) {
			t.Errorf("scenario %d (%s seed %d): results diverge\n sequential: %+v\n parallel:   %+v",
				i, scs[i].Spec.Name, scs[i].Spec.Seed, sequential[i], parallel[i])
		}
		if sequential[i].Err != "" {
			t.Errorf("scenario %d (%s): %s", i, scs[i].Spec.Name, sequential[i].Err)
		}
		if !sequential[i].Completed {
			t.Errorf("scenario %d (%s): incomplete (%d/%d flows)",
				i, scs[i].Spec.Name, sequential[i].FlowsDone, sequential[i].FlowsTotal)
		}
	}
}

// Re-running the same Scenario must reproduce the same Result exactly —
// the per-seed determinism RunScenarios' parallel guarantee rests on.
func TestRunIsDeterministicPerSeed(t *testing.T) {
	sc := mustScenario(scenario.Spec{
		Name:     "opera",
		Network:  "opera",
		Seed:     3,
		Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 12, FlowBytes: 25_000}},
		Duration: 4000 * eventsim.Millisecond,
	})
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

// Result carries what the figures reduce. Under RetainAll, BySize
// partitions All by flow-size decade and the delivered series adds up to
// every byte delivered; Hosts is the built cluster's host count.
func TestFigureReadouts(t *testing.T) {
	flows := []workload.FlowSpec{
		{Src: 0, Dst: 42, Bytes: 1_000},
		{Src: 1, Dst: 43, Bytes: 2_000_000},
		{Src: 2, Dst: 20, Bytes: 999},
	}
	res := scenario.Run(scenario.Scenario{
		Spec:    scenario.Spec{Name: "opera", Network: "opera", Seed: 1, Duration: 2000 * eventsim.Millisecond},
		Sources: []scenario.Source{func(scenario.Env) workload.Source { return workload.FromSpecs(flows) }},
	})
	if res.Err != "" || !res.Completed {
		t.Fatalf("run failed: %+v", res)
	}
	if res.Hosts != 64 {
		t.Errorf("Hosts = %d on 16×4 Opera, want 64", res.Hosts)
	}
	var n int
	for _, s := range res.BySize {
		n += s.N
	}
	if n != res.All.N || n != len(flows) {
		t.Errorf("Σ BySize[i].N = %d, All.N = %d, want both %d", n, res.All.N, len(flows))
	}
	for i, label := range map[int]string{0: "<1KB", 1: "1-10KB", 4: "1-10MB"} {
		if got := scenario.SizeDecade(i); got != label {
			t.Errorf("SizeDecade(%d) = %q, want %q", i, got, label)
		}
		if s := res.BySize[i]; s.N != 1 || s.P99Us <= 0 {
			t.Errorf("BySize[%d] (%s) = %+v, want its one flow", i, label, s)
		}
	}
	var delivered float64
	for _, r := range res.DeliveredRates {
		delivered += r * res.DeliveredBinS
	}
	if want := 2_001_999.0; res.DeliveredBinS != 0.001 || math.Abs(delivered-want) > 1e-9*want {
		t.Errorf("delivered series sums to %v B in %v s bins, want %v B in 1 ms bins", delivered, res.DeliveredBinS, want)
	}

	clos := scenario.Run(mustScenario(scenario.Spec{
		Name: "foldedclos", Network: "foldedclos", ClosK: 8, ClosF: 3, Seed: 1,
		Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 4, FlowBytes: 5_000}},
		Duration: 100 * eventsim.Millisecond,
	}))
	if clos.Err != "" || clos.Hosts != 192 {
		t.Errorf("small Clos: Hosts = %d (err %q), want 192", clos.Hosts, clos.Err)
	}
}

// A failed build surfaces through Result.Err, not an error return.
func TestRunScenariosBuildError(t *testing.T) {
	scs := []scenario.Scenario{{
		Spec: scenario.Spec{Name: "bad", Network: "opera", Seed: 1, Racks: 15}, // Opera needs even racks
	}}
	results, err := scenario.RunScenarios(context.Background(), scs, 0)
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
	results, err := scenario.RunScenarios(ctx, scs, 2)
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

// ForEachCluster hands every finished cluster, the one its Result
// describes, to the callback (concurrently, per-index); a failed build
// reaches it with a nil cluster.
func TestForEachCluster(t *testing.T) {
	scs := sweep()[:4]
	scs = append(scs, scenario.Scenario{
		Spec: scenario.Spec{Name: "bad", Network: "opera", Seed: 1, Racks: 15},
	})
	seen := make([]bool, len(scs))
	called := make([]bool, len(scs))
	counted := make([][2]int, len(scs))
	results, err := scenario.ForEachCluster(context.Background(), scs, 2,
		func(i int, cl *opera.Cluster, res scenario.Result) {
			called[i], seen[i] = true, cl != nil
			if cl != nil {
				counted[i][0], counted[i][1] = cl.Metrics().DoneCount()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs[:4] {
		if !seen[i] {
			t.Errorf("callback missed scenario %d", i)
		}
		if want := [2]int{results[i].FlowsDone, results[i].FlowsTotal}; counted[i] != want {
			t.Errorf("cluster %d: metrics %d/%d, result %d/%d", i, counted[i][0], counted[i][1], want[0], want[1])
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
