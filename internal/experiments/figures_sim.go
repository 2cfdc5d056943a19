package experiments

import (
	"context"
	"fmt"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/prototype"
	"github.com/opera-net/opera/internal/topology"
	"github.com/opera-net/opera/scenario"
)

// SimOptions controls the packet-level experiment family.
type SimOptions struct {
	Scale Scale
	// Loads are offered-load fractions for the Poisson experiments.
	Loads []float64
	// Duration is the flow-arrival window; the simulation drains for up to
	// DrainFactor× longer.
	Duration    eventsim.Time
	DrainFactor int
	// MaxFlowBytes caps sampled flow sizes (0 = unlimited); small-scale
	// runs cap the heavy tail so runtimes stay test-friendly.
	MaxFlowBytes int64
}

// DefaultSimOptions returns small-scale settings (seconds per run).
func DefaultSimOptions() SimOptions {
	return SimOptions{
		Scale:        SmallScale(),
		Loads:        []float64{0.01, 0.10, 0.25},
		Duration:     20 * eventsim.Millisecond,
		DrainFactor:  15,
		MaxFlowBytes: 20_000_000,
	}
}

// PaperSimOptions returns §5.1-scale settings (minutes per network).
func PaperSimOptions() SimOptions {
	return SimOptions{
		Scale:       PaperScale(),
		Loads:       []float64{0.01, 0.10, 0.25, 0.30, 0.40},
		Duration:    100 * eventsim.Millisecond,
		DrainFactor: 20,
	}
}

// run resolves specs and runs them through the scenario runner —
// independent clusters across all cores — returning Results in spec order.
// A figure is then a reduction of (specs, results): nothing it reads lives
// outside the Result, so the same reducer serves an in-process run and a
// sharded sweep's decoded frames alike.
func run(specs []scenario.Spec) ([]scenario.Result, error) {
	scs := make([]scenario.Scenario, len(specs))
	for i, sp := range specs {
		sc, err := sp.Scenario()
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	return scenario.RunScenarios(context.Background(), scs, 0)
}

// hostLinkBps is a host link's rate in bits/s, the unit the bandwidth
// figures normalize by.
const hostLinkBps = topology.DefaultLinkRateGbps * 1e9

// poissonSpecs describes every (network, load) cell of an open-loop
// Poisson FCT sweep.
func poissonSpecs(networks []string, opt SimOptions, dist string) []scenario.Spec {
	var specs []scenario.Spec
	for _, net := range networks {
		for _, load := range opt.Loads {
			sp := opt.Scale.Spec(net)
			sp.Duration = opt.Duration * eventsim.Time(opt.DrainFactor)
			// Streamed open-loop arrivals: the sweep never materializes a
			// flow list, so paper-scale load points stay O(active flows).
			sp.Sources = []scenario.SourceSpec{{
				Type: "poisson", Dist: dist, Load: load, Window: opt.Duration, MaxFlowBytes: opt.MaxFlowBytes,
			}}
			specs = append(specs, sp)
		}
	}
	return specs
}

// poissonFCT appends per-decade FCT rows in cell order: mean and 99th
// percentile (the paper reports the mean at 1% load) plus the completed
// fraction, which exposes saturation.
func poissonFCT(t *Table, specs []scenario.Spec, results []scenario.Result) error {
	for i, res := range results {
		name, load := specs[i].Name, specs[i].Sources[0].Load
		if res.Err != "" {
			return fmt.Errorf("%s (load %.2f): %s", name, load, res.Err)
		}
		for d, s := range res.BySize {
			if s.N == 0 {
				continue
			}
			t.Add(name, load, scenario.SizeDecade(d), s.MeanUs, s.P99Us, s.N,
				float64(res.FlowsDone)/float64(res.FlowsTotal))
		}
	}
	return nil
}

// runPoissonFCT runs the Poisson FCT sweep on networks and reduces it
// into t.
func runPoissonFCT(t *Table, networks []string, opt SimOptions, dist string) error {
	specs := poissonSpecs(networks, opt, dist)
	results, err := run(specs)
	if err != nil {
		return err
	}
	return poissonFCT(t, specs, results)
}

var fctHeader = []string{"network", "load", "flow_size", "mean_fct_us", "p99_fct_us", "flows", "completed_frac"}

// Fig07Datamining regenerates Figure 7: Datamining FCTs vs offered load on
// the four architectures (plus hybrid RotorNet at +33% cost).
func Fig07Datamining(opt SimOptions) ([]Table, error) {
	t := Table{Name: fmt.Sprintf("fig07_datamining_fct_%s", opt.Scale.Name), Header: fctHeader}
	networks := []string{"opera", "expander", "foldedclos", "rotornet-hybrid", "rotornet"}
	if err := runPoissonFCT(&t, networks, opt, "datamining"); err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// Fig09Websearch regenerates Figure 9: the all-indirect worst case.
func Fig09Websearch(opt SimOptions) ([]Table, error) {
	t := Table{Name: fmt.Sprintf("fig09_websearch_fct_%s", opt.Scale.Name), Header: fctHeader}
	if err := runPoissonFCT(&t, []string{"opera", "expander", "foldedclos"}, opt, "websearch"); err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

// ShuffleOptions controls the Figure 8 experiment.
type ShuffleOptions struct {
	Scale     Scale
	FlowBytes int64
	// Stagger spreads static-network arrivals (the paper uses 10 ms).
	Stagger  eventsim.Time
	Deadline eventsim.Time
	// Participants caps how many hosts join the shuffle (0 = all). The
	// folded Clos's host count is quantized by its radix (192 at small
	// scale vs 64 for the others); capping keeps the workload identical
	// across networks.
	Participants int
}

// DefaultShuffleOptions returns small-scale settings.
func DefaultShuffleOptions() ShuffleOptions {
	return ShuffleOptions{
		Scale:        SmallScale(),
		FlowBytes:    100_000,
		Stagger:      1 * eventsim.Millisecond,
		Deadline:     2000 * eventsim.Millisecond,
		Participants: 64,
	}
}

// Fig08Shuffle regenerates Figure 8: delivered throughput over time and
// the 99th-percentile FCT for a 100 KB all-to-all shuffle, application-
// tagged as bulk on Opera (all-direct paths).
func Fig08Shuffle(opt ShuffleOptions) ([]Table, error) {
	specs := shuffleSpecs(opt)
	results, err := run(specs)
	if err != nil {
		return nil, err
	}
	return shuffleTables(opt.Scale.Name, specs, results)
}

// shuffleSpecs describes Figure 8's cells. Opera: application-tagged bulk,
// simultaneous start (RotorLB handles it gracefully, §5.2); the static
// networks get staggered arrivals.
func shuffleSpecs(opt ShuffleOptions) []scenario.Spec {
	var specs []scenario.Spec
	for _, net := range []string{"opera", "expander", "foldedclos"} {
		sp := opt.Scale.Spec(net)
		sp.Duration = opt.Deadline
		sp.Sources = []scenario.SourceSpec{{
			Type: "shuffle", Participants: opt.Participants, FlowBytes: opt.FlowBytes, Stagger: opt.Stagger,
		}}
		if net == "opera" {
			sp.AppTaggedBulk, sp.Sources[0].Stagger = true, 0
		}
		specs = append(specs, sp)
	}
	return specs
}

// shuffleTables reduces Figure 8's cells: each network's delivered series
// over the shuffle participants' aggregate host-link capacity, and its
// FCT, completion and tax summary.
func shuffleTables(scale string, specs []scenario.Spec, results []scenario.Result) ([]Table, error) {
	series := Table{Name: fmt.Sprintf("fig08_shuffle_throughput_%s", scale),
		Header: []string{"network", "time_ms", "normalized_throughput"}}
	summary := Table{Name: fmt.Sprintf("fig08_shuffle_fct_%s", scale),
		Header: []string{"network", "p99_fct_ms", "completed_frac", "bandwidth_tax"}}
	for i, res := range results {
		name := specs[i].Name
		if res.Err != "" {
			return nil, fmt.Errorf("%s: %s", name, res.Err)
		}
		participants := res.Hosts
		if p := specs[i].Sources[0].Participants; p > 0 && p < participants {
			participants = p
		}
		capacity := float64(participants) * hostLinkBps / 8 // bytes/s aggregate
		for j, r := range res.DeliveredRates {
			series.Add(name, float64(j)*1000*res.DeliveredBinS, r/capacity)
		}
		summary.Add(name, res.All.P99Us/1000, float64(res.FlowsDone)/float64(res.FlowsTotal), res.AggregateTax)
	}
	return []Table{series, summary}, nil
}

// MixedOptions controls the Figure 10 experiment.
type MixedOptions struct {
	Scale Scale
	// WebsearchLoads are the low-latency load points.
	WebsearchLoads []float64
	Duration       eventsim.Time
}

// DefaultMixedOptions returns small-scale settings.
func DefaultMixedOptions() MixedOptions {
	return MixedOptions{
		Scale:          SmallScale(),
		WebsearchLoads: []float64{0.01, 0.05, 0.10},
		Duration:       30 * eventsim.Millisecond,
	}
}

// Fig10Mixed regenerates Figure 10: aggregate delivered throughput vs
// Websearch (low-latency) load with a saturating bulk underlay: every host
// keeps one large flow to its counterpart in every other rack, sized to
// fill the host link for the whole window. The underlay is per-flow
// application-tagged (§3.4), websearch is classified by size; every
// (network, load) cell fans out through the scenario runner, and a by-tag
// table breaks the aggregate down into its two components.
func Fig10Mixed(opt MixedOptions) ([]Table, error) {
	specs := mixedSpecs(opt)
	results, err := run(specs)
	if err != nil {
		return nil, err
	}
	return mixedTables(opt.Scale.Name, specs, results)
}

// mixedSpecs describes Figure 10's (network, websearch load) cells.
func mixedSpecs(opt MixedOptions) []scenario.Spec {
	var specs []scenario.Spec
	for _, net := range []string{"opera", "expander", "foldedclos"} {
		for _, wsLoad := range opt.WebsearchLoads {
			sp := opt.Scale.Spec(net)
			sp.Duration = opt.Duration
			sp.Sources = []scenario.SourceSpec{
				{Type: "saturate", Window: opt.Duration, Bulk: true, Tag: "shuffle"},
				{Type: "poisson", Dist: "websearch", Load: wsLoad, Window: opt.Duration, Tag: "websearch"},
			}
			specs = append(specs, sp)
		}
	}
	return specs
}

// mixedTables reduces Figure 10's cells: the bytes delivered within the
// underlay's window over the aggregate host-link capacity of that window,
// and the per-tag breakdown.
func mixedTables(scale string, specs []scenario.Spec, results []scenario.Result) ([]Table, error) {
	t := Table{Name: fmt.Sprintf("fig10_mixed_throughput_%s", scale),
		Header: []string{"network", "websearch_load", "normalized_throughput"}}
	byTag := Table{Name: fmt.Sprintf("fig10_mixed_by_tag_%s", scale),
		Header: []string{"network", "websearch_load", "tag", "throughput_gbps", "p99_fct_us", "flows_done", "flows_total"}}
	for i, res := range results {
		sp := specs[i]
		window, wsLoad := sp.Sources[0].Window.Seconds(), sp.Sources[1].Load
		if res.Err != "" {
			return nil, fmt.Errorf("%s (load %.2f): %s", sp.Name, wsLoad, res.Err)
		}
		var sum float64
		bins := int(window/res.DeliveredBinS + 0.5)
		for b := 0; b < bins && b < len(res.DeliveredRates); b++ {
			sum += res.DeliveredRates[b] * res.DeliveredBinS
		}
		capacity := float64(res.Hosts) * hostLinkBps / 8 * window
		t.Add(sp.Name, wsLoad, sum/capacity)
		for _, tag := range []string{"shuffle", "websearch"} {
			s := res.ByTag[tag]
			byTag.Add(sp.Name, wsLoad, tag, s.ThroughputGbps, s.FCT.P99Us, s.FlowsDone, s.FlowsTotal)
		}
	}
	return []Table{t, byTag}, nil
}

// Fig13Prototype regenerates Figure 13's RTT distributions.
func Fig13Prototype(params prototype.Params) ([]Table, error) {
	without, with, err := prototype.Figure13(params)
	if err != nil {
		return nil, err
	}
	t := Table{Name: "fig13_prototype_rtt", Header: []string{"scenario", "rtt_us", "cdf"}}
	for _, p := range without.CDF() {
		t.Add("without_bulk", p.X, p.F)
	}
	for _, p := range with.CDF() {
		t.Add("with_bulk", p.X, p.F)
	}
	return []Table{t}, nil
}
