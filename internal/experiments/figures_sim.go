package experiments

import (
	"context"
	"fmt"

	operapkg "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/prototype"
	"github.com/opera-net/opera/internal/stats"
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

// resolve turns run descriptions into the Scenarios the runner executes.
func resolve(specs []scenario.Spec) ([]scenario.Scenario, error) {
	scs := make([]scenario.Scenario, len(specs))
	for i, sp := range specs {
		sc, err := sp.Scenario()
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	return scs, nil
}

// fctBuckets are the flow-size decade boundaries used to report FCT vs
// flow size (Figures 7 and 9).
var fctBuckets = []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1 << 62}

func bucketOf(size int64) int {
	for i, b := range fctBuckets {
		if size < b {
			return i
		}
	}
	return len(fctBuckets) - 1
}

func bucketLabel(i int) string {
	names := []string{"<1KB", "1-10KB", "10-100KB", "100KB-1MB", "1-10MB", "10-100MB", ">=100MB"}
	return names[i]
}

// runPoissonFCT fans every (network, load) cell out through the scenario
// runner — independent clusters across all cores — then appends per-bucket
// FCT rows in cell order: 99th percentile (and mean at 1% load, following
// the paper's reporting) plus the completed fraction, which exposes
// saturation.
func runPoissonFCT(t *Table, networks []string, opt SimOptions, dist string) error {
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
	scs, err := resolve(specs)
	if err != nil {
		return err
	}
	// Buckets are tabulated inside the per-cluster callback (distinct
	// per-index slots, so no locking) and each cluster is released as soon
	// as its cell is done — a paper-scale sweep never holds more clusters
	// than workers.
	type cellStats struct {
		buckets     []stats.Sample
		done, total int
	}
	tallies := make([]cellStats, len(specs))
	results, err := scenario.ForEachCluster(context.Background(), scs,
		func(i int, cl *operapkg.Cluster, _ scenario.Result) {
			if cl == nil {
				return
			}
			cs := cellStats{buckets: make([]stats.Sample, len(fctBuckets))}
			for _, f := range cl.Metrics().Flows() {
				cs.total++
				if !f.Done {
					continue
				}
				cs.done++
				cs.buckets[bucketOf(f.Size)].Add(f.FCT().Micros())
			}
			tallies[i] = cs
		})
	if err != nil {
		return err
	}
	for i, cs := range tallies {
		name, load := specs[i].Name, specs[i].Sources[0].Load
		if results[i].Err != "" {
			return fmt.Errorf("%s (load %.2f): %s", name, load, results[i].Err)
		}
		for b := range cs.buckets {
			if cs.buckets[b].N() == 0 {
				continue
			}
			t.Add(name, load, bucketLabel(b), cs.buckets[b].Mean(), cs.buckets[b].P99(),
				cs.buckets[b].N(), float64(cs.done)/float64(cs.total))
		}
	}
	return nil
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
	series := Table{Name: fmt.Sprintf("fig08_shuffle_throughput_%s", opt.Scale.Name),
		Header: []string{"network", "time_ms", "normalized_throughput"}}
	summary := Table{Name: fmt.Sprintf("fig08_shuffle_fct_%s", opt.Scale.Name),
		Header: []string{"network", "p99_fct_ms", "completed_frac", "bandwidth_tax"}}

	// Opera: application-tagged bulk, simultaneous start (RotorLB handles it
	// gracefully, §5.2); the static networks get staggered arrivals.
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
	scs, err := resolve(specs)
	if err != nil {
		return nil, err
	}
	clusters, results, err := scenario.CollectScenarios(context.Background(), scs)
	if err != nil {
		return nil, err
	}
	for i, cl := range clusters {
		name := specs[i].Name
		if cl == nil {
			return nil, fmt.Errorf("%s: %s", name, results[i].Err)
		}
		participants := cl.NumHosts()
		if opt.Participants > 0 && opt.Participants < participants {
			participants = opt.Participants
		}
		capacity := float64(participants) * 10e9 / 8 // bytes/s aggregate
		rates := cl.Metrics().DeliveredBytes.Rates()
		for j, r := range rates {
			series.Add(name, float64(j)*1000*cl.Metrics().DeliveredBytes.BinWidth(), r/capacity)
		}
		var fct stats.Sample
		var done, total int
		for _, f := range cl.Metrics().Flows() {
			total++
			if f.Done {
				done++
				fct.Add(f.FCT().Seconds() * 1000)
			}
		}
		summary.Add(name, fct.P99(), float64(done)/float64(total), cl.Metrics().AggregateTax())
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
	t := Table{Name: fmt.Sprintf("fig10_mixed_throughput_%s", opt.Scale.Name),
		Header: []string{"network", "websearch_load", "normalized_throughput"}}
	byTag := Table{Name: fmt.Sprintf("fig10_mixed_by_tag_%s", opt.Scale.Name),
		Header: []string{"network", "websearch_load", "tag", "throughput_gbps", "p99_fct_us", "flows_done", "flows_total"}}
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
	scs, err := resolve(specs)
	if err != nil {
		return nil, err
	}
	// Normalized throughput needs the delivery time series, so tabulate in
	// the per-cluster callback (distinct per-index slots, no locking).
	delivered := make([]float64, len(specs))
	results, err := scenario.ForEachCluster(context.Background(), scs,
		func(i int, cl *operapkg.Cluster, _ scenario.Result) {
			if cl == nil {
				return
			}
			// Bytes delivered within the run window over the aggregate
			// host-link capacity of the same window.
			ts := cl.Metrics().DeliveredBytes
			var sum float64
			bins := int(opt.Duration.Seconds()/ts.BinWidth() + 0.5)
			for b := 0; b < bins; b++ {
				sum += ts.Rate(b) * ts.BinWidth()
			}
			capacity := float64(cl.NumHosts()) * 10e9 / 8 * opt.Duration.Seconds()
			delivered[i] = sum / capacity
		})
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		wsLoad := sp.Sources[1].Load
		if results[i].Err != "" {
			return nil, fmt.Errorf("%s (load %.2f): %s", sp.Name, wsLoad, results[i].Err)
		}
		t.Add(sp.Name, wsLoad, delivered[i])
		for _, tag := range []string{"shuffle", "websearch"} {
			s := results[i].ByTag[tag]
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
