package main

import (
	"fmt"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/scenario"
)

// A workloadDef is one fixed input the benchmark runs: a list of declarative
// scenario.Specs built from the seed, and the way they are executed. The
// seed reaches the simulator only as Spec.Seed.
type workloadDef struct {
	name string
	// why records the reason the workload is in the suite (BENCHMARK.json
	// carries the same sentence).
	why string
	// bulk selects the service class whose p99 FCT is the workload's
	// sim_fct_p99_us: Bulk when true, LowLat otherwise.
	bulk bool
	// sharded runs the specs through sweep.Run with two worker processes
	// (plus collector decode and merge); otherwise each spec runs
	// in-process through scenario.Collect, one after the other.
	sharded bool
	// specs builds the input. toy shrinks it to test scale.
	specs func(seed int64, toy bool) []scenario.Spec
}

const ms = eventsim.Millisecond

var workloads = []workloadDef{
	{
		name: "websearch_opera",
		why:  "paper-scale Opera (648 hosts), websearch flows under 1 MB: all bytes ride NDP over time-varying expander slices; the only large set-up",
		specs: func(seed int64, toy bool) []scenario.Spec {
			sp := scenario.Spec{
				Name: "websearch_opera", Network: "opera", Seed: seed,
				Racks: 108, HostsPerRack: 6, Uplinks: 6,
				Duration: 500 * ms,
				Sources: []scenario.SourceSpec{{
					Type: "poisson", Dist: "websearch", Load: 0.10, Window: 30 * ms, MaxFlowBytes: 1_000_000,
				}},
			}
			if toy {
				sp.Racks, sp.HostsPerRack, sp.Uplinks = 0, 0, 0
				sp.Sources[0].Window = 2 * ms
				sp.Sources[0].MaxFlowBytes = 50_000
			}
			return []scenario.Spec{sp}
		},
	},
	{
		name: "shuffle_opera",
		why:  "app-tagged all-to-all shuffle on 16x4 Opera: every byte rides RotorLB over direct circuits and VLB relays, NDP idle; allocation- and GC-bound",
		bulk: true,
		specs: func(seed int64, toy bool) []scenario.Spec {
			sp := scenario.Spec{
				Name: "shuffle_opera", Network: "opera", Seed: seed,
				AppTaggedBulk: true,
				Duration:      5000 * ms,
				Sources:       []scenario.SourceSpec{{Type: "shuffle", FlowBytes: 300_000}},
			}
			if toy {
				sp.Sources[0].FlowBytes = 15_000
			}
			return []scenario.Spec{sp}
		},
	},
	{
		name: "shuffle_clos",
		why:  "64-host staggered shuffle on the static k=8 folded Clos: no slot clocks, RotorLB or time-varying routing, so Opera-only work must not move it; NDP steady state with incast trimming",
		specs: func(seed int64, toy bool) []scenario.Spec {
			sp := scenario.Spec{
				Name: "shuffle_clos", Network: "foldedclos", Seed: seed,
				ClosK: 8, ClosF: 3,
				Duration: 2000 * ms,
				Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 64, FlowBytes: 50_000, Stagger: ms}},
			}
			if toy {
				sp.Sources[0].Participants = 12
				sp.Sources[0].FlowBytes = 6_000
			}
			return []scenario.Spec{sp}
		},
	},
	{
		name:    "churn_sweep",
		why:     "2-worker sharded sweep of short-flow churn with incast and gray faults under sketch retention: source pump, NDP flow set-up/tear-down, telemetry absorb, gob frames, decode and merge",
		sharded: true,
		specs: func(seed int64, toy bool) []scenario.Spec {
			window, bursts := 1000*ms, 50
			if toy {
				window, bursts = 4*ms, 2
			}
			var specs []scenario.Spec
			for _, net := range []string{"opera", "expander"} {
				for s := seed; s < seed+2; s++ {
					sp := scenario.Spec{
						Name: fmt.Sprintf("churn/%s/%d", net, s), Network: net, Seed: s,
						Duration: window + 500*ms,
						// A 0.1 % sketch: at the default 1 % the pooled p99 of
						// ~180 k flows falls in the same bucket on every seed.
						Retention: scenario.RetentionSpec{Sketch: true, Alpha: 0.001},
						Sources: []scenario.SourceSpec{
							{Type: "poisson", Dist: "websearch", Load: 0.9, Window: window, MaxFlowBytes: 10_000, Tag: "rpc"},
							{Type: "incast", Fanin: 16, FlowBytes: 20_000, Period: 2 * ms, Bursts: bursts, Tag: "incast"},
						},
						Events: []scenario.EventSpec{
							{At: 20 * ms, Target: flatLink(3, 2), Fault: scenario.FaultSpec{Kind: "lossy", Rate: 0.01}},
							{At: 100 * ms, Op: "recover", Target: flatLink(3, 2)},
							{At: 40 * ms, Target: flatLink(5, 1), Fault: scenario.FaultSpec{Kind: "flapping", Up: 2 * ms, Down: ms}},
							{At: 110 * ms, Op: "recover", Target: flatLink(5, 1)},
						},
					}
					if net == "expander" {
						sp.Uplinks = 5
					}
					specs = append(specs, sp)
				}
			}
			return specs
		},
	},
}

// flatLink names the tier-0 {rack, uplink} cable every fabric interprets.
func flatLink(rack, uplink int) scenario.TargetSpec {
	return scenario.TargetSpec{Kind: "link", Switch: rack, Port: uplink}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
