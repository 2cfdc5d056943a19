package scenario_test

import (
	"fmt"
	"log"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/scenario"
)

// A run is described as plain data: the fabric, its traffic, a fault
// schedule and a retention policy. Here one Opera uplink goes down half a
// millisecond into a staggered shuffle; the hello protocol routes around
// it and every flow still completes. Under sketch retention completed
// flows feed quantile sketches instead of being kept, so the Result's
// percentiles carry an error bound.
func ExampleSpec() {
	sc, err := scenario.Spec{
		Name: "link-cut", Network: "opera", Seed: 1,
		Racks: 8, HostsPerRack: 2, Uplinks: 4,
		Sources:   []scenario.SourceSpec{{Type: "shuffle", Participants: 8, FlowBytes: 30_000, Stagger: eventsim.Millisecond}},
		Events:    []scenario.EventSpec{{At: 500 * eventsim.Microsecond, Target: sim.FlatLink(3, 2)}},
		Retention: scenario.RetentionSpec{Sketch: true},
		Duration:  1000 * eventsim.Millisecond,
	}.Scenario()
	if err != nil {
		log.Fatal(err)
	}
	res := scenario.Run(sc)
	if res.Err != "" {
		log.Fatal(res.Err)
	}
	fmt.Printf("%d/%d flows complete: %v\n", res.FlowsDone, res.FlowsTotal, res.Completed)
	fmt.Printf("FCT percentiles within ±%.0f%%\n", 100*res.ErrorBound)
	fmt.Printf("p99 FCT: %.0f µs\n", res.All.P99Us)
	// Output:
	// 56/56 flows complete: true
	// FCT percentiles within ±1%
	// p99 FCT: 91 µs
}
