package opera_test

import (
	"context"
	"fmt"
	"log"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/workload"
	"github.com/opera-net/opera/scenario"
)

// Clusters are assembled from functional options over per-kind defaults;
// building one and inspecting its shape is fully deterministic.
func ExampleNew() {
	cl, err := opera.New(opera.KindOpera,
		opera.WithRacks(16),
		opera.WithHostsPerRack(4),
		opera.WithUplinks(4),
		opera.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cl.Kind(), cl.NumHosts(), "hosts,", cl.HostsPerRack(), "per rack")
	// Output: opera 64 hosts, 4 per rack
}

// Flows below the 15 MB threshold are latency-sensitive; larger ones are
// bulk; application tagging overrides size.
func ExampleCluster_AddFlow() {
	cl, err := opera.New(opera.KindOpera, opera.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	rpc := cl.AddFlow(workload.FlowSpec{Src: 0, Dst: 42, Bytes: 6_000})
	big := cl.AddFlow(workload.FlowSpec{Src: 1, Dst: 43, Bytes: 30_000_000})
	tagged := cl.AddBulkFlow(workload.FlowSpec{Src: 2, Dst: 44, Bytes: 6_000})
	fmt.Println(rpc.Class, big.Class, tagged.Class)

	if !cl.RunUntilDone(2000 * eventsim.Millisecond) {
		log.Fatal("incomplete")
	}
	done, total := cl.Metrics().DoneCount()
	fmt.Println(done, "of", total, "flows complete")
	// Output:
	// lowlat bulk bulk
	// 3 of 3 flows complete
}

// Whole parameter sweeps fan out across goroutines through the scenario
// runner; results are deterministic at any parallelism.
func ExampleRunScenarios() {
	scs := []scenario.Scenario{
		{
			Name: "opera", Kind: opera.KindOpera, Seed: 1,
			Sources:  []scenario.Source{scenario.Shuffle(8, 40_000, 0)},
			Duration: 2000 * eventsim.Millisecond,
		},
		{
			Name: "expander", Kind: opera.KindExpander, Seed: 1,
			Sources:  []scenario.Source{scenario.Shuffle(8, 40_000, eventsim.Millisecond)},
			Duration: 2000 * eventsim.Millisecond,
		},
	}
	results, err := scenario.RunScenarios(context.Background(), scs, scenario.Parallelism(2))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%s: %d/%d flows\n", r.Name, r.FlowsDone, r.FlowsTotal)
	}
	// Output:
	// opera: 56/56 flows
	// expander: 56/56 flows
}
