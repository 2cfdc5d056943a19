package opera_test

import (
	"context"
	"fmt"
	"log"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
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

// Flows below the 15 MB threshold are latency-sensitive and ride NDP over
// the current slice's expander at once; larger ones are bulk and wait for
// RotorLB's circuits; application tagging overrides size.
func ExampleCluster_AddFlow() {
	cl, err := opera.New(opera.KindOpera, opera.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	rpc := cl.AddFlow(workload.FlowSpec{Src: 0, Dst: 42, Bytes: 6_000})
	big := cl.AddFlow(workload.FlowSpec{Src: 1, Dst: 43, Bytes: 30_000_000})
	tagged := cl.AddFlow(workload.FlowSpec{Src: 2, Dst: 44, Bytes: 6_000, Bulk: true})
	fmt.Println(rpc.Class, big.Class, tagged.Class)

	if !cl.RunUntilDone(2000 * eventsim.Millisecond) {
		log.Fatal("incomplete")
	}
	m := cl.Metrics()
	done, total := m.DoneCount()
	fmt.Println(done, "of", total, "flows complete")
	// The bandwidth tax is the extra ToR-to-ToR traversals per delivered
	// byte: the RPC crossed a three-hop path of the slice's expander.
	fmt.Printf("low-latency bandwidth tax: %.0f%%\n", 100*m.BandwidthTax(sim.ClassLowLatency))
	fmt.Printf("bulk bandwidth tax:        %.0f%%\n", 100*m.BandwidthTax(sim.ClassBulk))
	// Output:
	// lowlat bulk bulk
	// 3 of 3 flows complete
	// low-latency bandwidth tax: 200%
	// bulk bandwidth tax:        97%
}

// Whole parameter sweeps fan out across goroutines through the scenario
// runner; results are deterministic at any parallelism.
func ExampleRunScenarios() {
	var scs []scenario.Scenario
	for _, sp := range []scenario.Spec{
		{
			Name: "opera", Network: "opera", Seed: 1,
			Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 8, FlowBytes: 40_000}},
			Duration: 2000 * eventsim.Millisecond,
		},
		{
			Name: "expander", Network: "expander", Seed: 1,
			Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 8, FlowBytes: 40_000, Stagger: eventsim.Millisecond}},
			Duration: 2000 * eventsim.Millisecond,
		},
	} {
		sc, err := sp.Scenario()
		if err != nil {
			log.Fatal(err)
		}
		scs = append(scs, sc)
	}
	results, err := scenario.RunScenarios(context.Background(), scs, 2)
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
