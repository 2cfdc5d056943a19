package experiments

import (
	"context"
	"fmt"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/prototype"
	"github.com/opera-net/opera/internal/topology"
	"github.com/opera-net/opera/scenario"
)

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
// Poisson FCT sweep at scale s.
func poissonSpecs(s Scale, dist string, networks ...string) []scenario.Spec {
	var specs []scenario.Spec
	for _, net := range networks {
		for _, load := range s.Loads {
			sp := s.Spec(net)
			sp.Duration = s.Window * eventsim.Time(s.DrainFactor)
			// Streamed open-loop arrivals: the sweep never materializes a
			// flow list, so paper-scale load points stay O(active flows).
			sp.Sources = []scenario.SourceSpec{{
				Type: "poisson", Dist: dist, Load: load, Window: s.Window, MaxFlowBytes: s.MaxFlowBytes,
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

// poissonFigure runs a Poisson FCT sweep's specs and reduces them into
// the one table named name.
func poissonFigure(name string, specs []scenario.Spec) ([]Table, error) {
	results, err := run(specs)
	if err != nil {
		return nil, err
	}
	t := Table{Name: name, Header: fctHeader}
	if err := poissonFCT(&t, specs, results); err != nil {
		return nil, err
	}
	return []Table{t}, nil
}

var fctHeader = []string{"network", "load", "flow_size", "mean_fct_us", "p99_fct_us", "flows", "completed_frac"}

// fig07Specs describes Figure 7's cells: Datamining on the four
// architectures plus hybrid RotorNet at +33% cost.
func fig07Specs(s Scale) []scenario.Spec {
	return poissonSpecs(s, "datamining", "opera", "expander", "foldedclos", "rotornet-hybrid", "rotornet")
}

// Fig07Datamining regenerates Figure 7: Datamining FCTs vs offered load on
// the four architectures (plus hybrid RotorNet at +33% cost).
func Fig07Datamining(s Scale) ([]Table, error) {
	return poissonFigure("fig07_datamining_fct_"+s.Name, fig07Specs(s))
}

// fig09Specs describes Figure 9's cells: Websearch, the all-indirect
// worst case, on the three cost-equivalent networks.
func fig09Specs(s Scale) []scenario.Spec {
	return poissonSpecs(s, "websearch", "opera", "expander", "foldedclos")
}

// Fig09Websearch regenerates Figure 9: the all-indirect worst case.
func Fig09Websearch(s Scale) ([]Table, error) {
	return poissonFigure("fig09_websearch_fct_"+s.Name, fig09Specs(s))
}

// Figure 8's shuffle is the same at every scale: 100 KB between every
// pair of 64 hosts under a 2 s deadline. Capping the participants keeps
// the workload identical across networks, since the folded Clos's host
// count is quantized by its radix (192 at small scale).
const (
	shuffleFlowBytes    = 100_000
	shuffleParticipants = 64
	shuffleDeadline     = 2000 * eventsim.Millisecond
)

// Fig08Shuffle regenerates Figure 8: delivered throughput over time and
// the 99th-percentile FCT for a 100 KB all-to-all shuffle, application-
// tagged as bulk on Opera (all-direct paths).
func Fig08Shuffle(s Scale) ([]Table, error) {
	specs := fig08Specs(s)
	results, err := run(specs)
	if err != nil {
		return nil, err
	}
	return shuffleTables(s.Name, specs, results)
}

// fig08Specs describes Figure 8's cells. Opera: application-tagged bulk,
// simultaneous start (RotorLB handles it gracefully, §5.2); the static
// networks get arrivals staggered by s.Stagger.
func fig08Specs(s Scale) []scenario.Spec {
	var specs []scenario.Spec
	for _, net := range []string{"opera", "expander", "foldedclos"} {
		sp := s.Spec(net)
		sp.Duration = shuffleDeadline
		sp.Sources = []scenario.SourceSpec{{
			Type: "shuffle", Participants: shuffleParticipants, FlowBytes: shuffleFlowBytes, Stagger: s.Stagger,
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

// Figure 10's websearch load points and underlay window are the same at
// every scale.
var mixedLoads = []float64{0.01, 0.05, 0.10}

const mixedWindow = 30 * eventsim.Millisecond

// Fig10Mixed regenerates Figure 10: aggregate delivered throughput vs
// Websearch (low-latency) load with a saturating bulk underlay: every host
// keeps one large flow to its counterpart in every other rack, sized to
// fill the host link for the whole window. The underlay is per-flow
// application-tagged (§3.4), websearch is classified by size; every
// (network, load) cell fans out through the scenario runner, and a by-tag
// table breaks the aggregate down into its two components.
func Fig10Mixed(s Scale) ([]Table, error) {
	specs := fig10Specs(s)
	results, err := run(specs)
	if err != nil {
		return nil, err
	}
	return mixedTables(s.Name, specs, results)
}

// fig10Specs describes Figure 10's (network, websearch load) cells.
func fig10Specs(s Scale) []scenario.Spec {
	var specs []scenario.Spec
	for _, net := range []string{"opera", "expander", "foldedclos"} {
		for _, wsLoad := range mixedLoads {
			sp := s.Spec(net)
			sp.Duration = mixedWindow
			sp.Sources = []scenario.SourceSpec{
				{Type: "saturate", Window: mixedWindow, Bulk: true, Tag: "shuffle"},
				{Type: "poisson", Dist: "websearch", Load: wsLoad, Window: mixedWindow, Tag: "websearch"},
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

// Fig13Prototype regenerates Figure 13's RTT distributions from samples
// ping-pong exchanges per scenario.
func Fig13Prototype(samples int) ([]Table, error) {
	without, with, err := prototype.Figure13(samples)
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
