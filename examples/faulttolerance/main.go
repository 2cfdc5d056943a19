// Faulttolerance reproduces the §5.5 failure analysis (Figure 11) on the
// paper's 108-rack network: random link, ToR and circuit-switch failures
// are injected, and connectivity loss plus path stretch are measured
// across every topology slice. A packet-level epilogue then injects a
// live link failure into a running Opera cluster (built through the
// options API) and shows flows completing around it.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/faults"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/topology"
	"github.com/opera-net/opera/scenario"
)

func main() {
	o, err := topology.NewOpera(topology.Config{
		NumRacks:     108,
		HostsPerRack: 6,
		NumSwitches:  6,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Opera 108-rack fault tolerance (Figure 11 / Figure 18)")
	fmt.Printf("\n%-10s %-9s %16s %16s %10s %10s\n",
		"failure", "fraction", "worst-slice loss", "across-all loss", "avg path", "max path")

	show := func(kind string, fracs []float64, inject func(frac float64) faults.OperaResult) {
		for _, frac := range fracs {
			r := inject(frac)
			fmt.Printf("%-10s %-9.3f %16.4f %16.4f %10.2f %10d\n",
				kind, frac, r.WorstSliceLoss, r.UnionLoss, r.AvgPath, r.MaxPath)
		}
	}
	show("links", []float64{0.01, 0.04, 0.10, 0.20}, func(f float64) faults.OperaResult {
		return faults.OperaFailures(o, f, 0, 0, 42)
	})
	show("tors", []float64{0.01, 0.07, 0.20}, func(f float64) faults.OperaResult {
		return faults.OperaFailures(o, 0, f, 0, 42)
	})
	show("switches", []float64{1.0 / 6, 2.0 / 6, 3.0 / 6}, func(f float64) faults.OperaResult {
		return faults.OperaFailures(o, 0, 0, f, 42)
	})

	fmt.Println("\nThe paper reports no connectivity loss up to ≈4% of links,")
	fmt.Println("≈7% of ToRs, or 2 of 6 circuit switches — failures cost path")
	fmt.Println("stretch first, disconnection only much later (§5.5, App. E).")

	// Packet level: fail a live link mid-run — declared as a Scenario
	// fault schedule — and watch traffic route around it via the
	// hello-protocol epidemic (§3.6.2).
	sc, err := scenario.Spec{
		Name: "opera-link-failure", Network: "opera", Seed: 1,
		Racks: 16, HostsPerRack: 4, Uplinks: 4,
		Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 16, FlowBytes: 30_000, Stagger: eventsim.Millisecond}},
		Events:   []scenario.EventSpec{{At: 500 * eventsim.Microsecond, Target: sim.FlatLink(3, 2)}},
		Duration: 4000 * eventsim.Millisecond,
	}.Scenario()
	if err != nil {
		log.Fatal(err)
	}
	res := scenario.Run(sc)
	if res.Err != "" {
		log.Fatal(res.Err)
	}
	fmt.Printf("\npacket-level check: link (rack 3, switch 2) failed at 500 µs;")
	fmt.Printf(" %d/%d flows still completed (complete=%v, bulk NACKs=%d)\n",
		res.FlowsDone, res.FlowsTotal, res.Completed, res.BulkNACKs)
}
