// Websearch reproduces Opera's worst case (§5.3, Figure 9): the Microsoft
// Websearch workload tops out near 30 MB, so with the 15 MB threshold
// essentially every byte is latency-sensitive and rides indirect expander
// paths, paying the bandwidth tax on all of it. Opera tracks the static
// networks' FCTs at low load but admits less total load — the price of
// provisioning most capacity as time-multiplexed direct circuits. The
// whole (network × load) grid runs concurrently through the scenario
// runner.
//
//	go run ./examples/websearch
package main

import (
	"context"
	"fmt"
	"log"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/scenario"
)

func main() {
	fmt.Println("Websearch workload (all-indirect worst case, Figure 9)")

	networks := []string{"opera", "expander", "foldedclos"}
	loads := []float64{0.01, 0.05, 0.10}
	duration := 20 * eventsim.Millisecond

	var scs []scenario.Scenario
	for _, network := range networks {
		for _, load := range loads {
			sc, err := scenario.Spec{
				Name: fmt.Sprintf("%s load %.2f", network, load), Network: network, Seed: 3,
				Racks: 16, HostsPerRack: 4, Uplinks: 4, ClosK: 8, ClosF: 3,
				Sources:  []scenario.SourceSpec{{Type: "poisson", Dist: "websearch", Load: load, Window: duration}},
				Duration: duration * 20,
			}.Scenario()
			if err != nil {
				log.Fatal(err)
			}
			// Workload arrivals use seed 3; the topology seed comes from
			// WithSeed, applied after the runner's default.
			sc.Options = append(sc.Options, opera.WithSeed(1))
			scs = append(scs, sc)
		}
	}
	results, err := scenario.RunScenarios(context.Background(), scs, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %12s %12s %10s\n", "scenario", "p50 (µs)", "p99 (µs)", "completed")
	for _, r := range results {
		if r.Err != "" {
			log.Fatalf("%s: %s", r.Name, r.Err)
		}
		fmt.Printf("%-22s %12.1f %12.1f %9.1f%%\n",
			r.Name, r.All.P50Us, r.All.P99Us,
			100*float64(r.FlowsDone)/float64(r.FlowsTotal))
	}
	fmt.Println("\nAt these loads all three networks deliver comparable FCTs (§5.3);")
	fmt.Println("Opera saturates first (≈10% load at paper scale) since every byte")
	fmt.Println("pays the expander bandwidth tax on its under-provisioned packet paths.")
}
