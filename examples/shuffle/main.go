// Shuffle compares a MapReduce-style all-to-all shuffle (§5.2, Figure 8)
// across Opera and the two static baselines: Opera's application-tagged
// bulk service carries every flow over direct circuits, avoiding the
// bandwidth tax that throttles the expander and the capacity limit of the
// oversubscribed folded Clos. The three clusters run concurrently through
// the scenario runner.
//
// By default the shuffle runs among 16 hosts with arrivals staggered over
// 1 ms, which finishes in seconds; -full restores the paper's 64-host
// simultaneous-start shuffle (4032 flows — several minutes of wall time).
//
//	go run ./examples/shuffle
//	go run ./examples/shuffle -full
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/scenario"
)

const flowBytes = 100_000 // the Facebook Hadoop median inter-rack flow

func main() {
	full := flag.Bool("full", false, "run the full 64-host simultaneous shuffle (several minutes)")
	flag.Parse()

	participants := 16
	if *full {
		participants = 64
	}
	fmt.Printf("all-to-all shuffle among %d hosts, %d B per flow (Figure 8 scenario)\n\n",
		participants, flowBytes)

	// One run description per network. Opera: flows application-tagged as
	// bulk, all started simultaneously (RotorLB handles simultaneous starts
	// gracefully, §5.2). The static networks get staggered arrivals to avoid
	// startup effects, and every shuffle is capped at the same participants
	// so the workload matches despite the Clos's larger quantized host count.
	var scs []scenario.Scenario
	for _, network := range []string{"opera", "expander", "foldedclos"} {
		sp := scenario.Spec{
			Name: network, Network: network, Seed: 1,
			Racks: 16, HostsPerRack: 4, Uplinks: 4, ClosK: 8, ClosF: 3,
			Duration: 5000 * eventsim.Millisecond,
			Sources: []scenario.SourceSpec{{
				Type: "shuffle", Participants: participants, FlowBytes: flowBytes, Stagger: eventsim.Millisecond,
			}},
		}
		if network == "opera" {
			sp.AppTaggedBulk, sp.Sources[0].Stagger = true, 0
		}
		sc, err := sp.Scenario()
		if err != nil {
			log.Fatal(err)
		}
		scs = append(scs, sc)
	}

	results, err := scenario.RunScenarios(context.Background(), scs, scenario.Parallelism(3))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %14s %14s\n", "network", "p99 FCT (ms)", "bandwidth tax")
	for _, r := range results {
		if r.Err != "" {
			log.Fatalf("%s: %s", r.Name, r.Err)
		}
		if !r.Completed {
			log.Fatalf("%s: only %d/%d flows completed", r.Name, r.FlowsDone, r.FlowsTotal)
		}
		fmt.Printf("%-12s %14.1f %13.0f%%\n", r.Name, r.All.P99Us/1000, 100*r.AggregateTax)
	}
	fmt.Println("\nOpera's direct circuits carry shuffle cheaply while the expander")
	fmt.Println("pays (pathlen-1)× tax and the 3:1 Clos is capacity-bound.")
	if !*full {
		fmt.Println("(16 hosts leave Opera some VLB relaying; -full runs the paper's")
		fmt.Println("64-host shuffle, where direct circuits drive the tax to zero.)")
	}
}
