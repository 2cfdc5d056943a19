package experiments

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/cost"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/routing"
	"github.com/opera-net/opera/internal/topology"
	"github.com/opera-net/opera/internal/workload"
)

// Fig01FlowSizeCDFs regenerates Figure 1: flow-count and byte-weighted
// CDFs of the three published workloads.
func Fig01FlowSizeCDFs() []Table {
	flows := Table{Name: "fig01_flow_cdf", Header: []string{"workload", "bytes", "cdf_flows"}}
	bytes := Table{Name: "fig01_byte_cdf", Header: []string{"workload", "bytes", "cdf_bytes"}}
	for _, d := range []*workload.FlowSizeDist{
		workload.Datamining(), workload.Websearch(), workload.Hadoop(),
	} {
		for _, a := range d.Anchors() {
			flows.Add(d.Name, a.Bytes, a.F)
			bytes.Add(d.Name, a.Bytes, d.ByteFractionBelow(a.Bytes))
		}
	}
	return []Table{flows, bytes}
}

// Fig04PathLengths regenerates Figure 4: the CDF of ToR-to-ToR path
// lengths for cost-equivalent Opera, static expander and folded-Clos
// networks. Opera's CDF aggregates over every topology slice.
func Fig04PathLengths(s Scale) ([]Table, error) {
	t := Table{Name: fmt.Sprintf("fig04_path_length_cdf_%s", s.Name),
		Header: []string{"network", "hops", "cdf"}}

	cfg := topology.Config{
		NumRacks: s.Racks, HostsPerRack: s.HostsPerRack, NumSwitches: s.Uplinks, Seed: s.Seed,
	}
	if s.Racks >= 100 {
		// §3.3 design-time realization testing: the paper's 108-rack
		// network has worst-case slice paths of 5 hops (it sizes ε on it).
		cfg.MaxDiameter = 5
	}
	o, err := topology.NewOpera(cfg)
	if err != nil {
		return nil, err
	}
	emitCDF(&t, "opera", o.PathStats())

	e, err := topology.NewExpander(s.ExpRacks, s.ExpHosts, s.ExpDegree, s.Seed)
	if err != nil {
		return nil, err
	}
	var bfs graph.BitBFS
	emitCDF(&t, fmt.Sprintf("expander-u%d", s.ExpDegree), bfs.PathStats(e.Adj, nil))

	c, err := topology.NewFoldedClos(s.ClosK, s.ClosF)
	if err != nil {
		return nil, err
	}
	// Up/down routing's ToR-to-ToR hops: 2 within a pod, 4 across pods.
	tors := make([]int, c.NumToRs)
	for i := range tors {
		tors[i] = i
	}
	emitCDF(&t, fmt.Sprintf("clos-%d:1", s.ClosF), bfs.PathStats(c.RackGraph(), tors))
	return []Table{t}, nil
}

func emitCDF(t *Table, name string, ps graph.PathStats) {
	for h, f := range ps.CDF() {
		if h == 0 {
			continue
		}
		t.Add(name, h, f)
	}
}

// Fig14CycleTime regenerates Figure 14: relative cycle time vs ToR radix,
// with and without Appendix B's grouped reconfiguration.
func Fig14CycleTime() []Table {
	t := Table{Name: "fig14_cycle_time", Header: []string{"tor_radix", "no_groups", "groups_of_6"}}
	base := float64(topology.RelativeCycleSlices(12, 0))
	for k := 12; k <= 64; k += 4 {
		t.Add(k,
			float64(topology.RelativeCycleSlices(k, 0))/base,
			float64(topology.RelativeCycleSlices(k, 6))/base)
	}
	return []Table{t}
}

// Fig16PathVsScale regenerates Figure 16: average path length vs ToR radix
// for Opera and cost-equivalent expanders at several α values.
func Fig16PathVsScale(radices []int) ([]Table, error) {
	if len(radices) == 0 {
		radices = []int{12, 16, 24, 32, 48}
	}
	t := Table{Name: "fig16_path_vs_scale", Header: []string{"network", "tor_radix", "avg_path", "hosts"}}
	var bfs graph.BitBFS
	for _, k := range radices {
		// Opera at its native sizing (N = 3k²/4 racks). GroupSize equals the
		// switch count (single stagger group): grouping only shortens the
		// cycle and does not change per-slice path statistics.
		n := 3 * k * k / 4
		o, err := topology.NewOpera(topology.Config{
			NumRacks: n, HostsPerRack: k / 2, NumSwitches: k / 2, GroupSize: k / 2,
			Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		// Average over sampled slices (path statistics concentrate).
		peers := graph.NewTable(n, o.Uplinks())
		var sum float64
		samples := 3
		for i := 0; i < samples; i++ {
			o.SlicePeers(i*o.SlicesPerCycle()/samples, peers)
			sum += bfs.PathStats(peers, nil).Avg()
		}
		t.Add("opera", k, sum/float64(samples), o.NumHosts())

		for _, alpha := range []float64{1.0, 1.4, 2.0, 3.0} {
			eq := cost.Equivalents(k, alpha)
			if eq.ExpanderRacks < eq.ExpanderU+1 {
				continue
			}
			e, err := topology.NewExpander(eq.ExpanderRacks, eq.ExpanderD, eq.ExpanderU, 1)
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprintf("expander-a%.1f", alpha), k, bfs.PathStats(e.Adj, nil).Avg(), eq.Hosts)
		}
	}
	return []Table{t}, nil
}

// Fig17SpectralGap regenerates Appendix D's Figure 17: spectral gap vs
// average/worst path length for every Opera topology slice against static
// expanders of varying degree on the same host population.
func Fig17SpectralGap(s Scale) ([]Table, error) {
	t := Table{Name: "fig17_spectral_gap",
		Header: []string{"network", "spectral_gap", "avg_path", "worst_path"}}
	o, err := topology.NewOpera(topology.Config{
		NumRacks: s.Racks, HostsPerRack: s.HostsPerRack, NumSwitches: s.Uplinks, Seed: s.Seed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	peers := graph.NewTable(o.NumRacks(), o.Uplinks())
	var bfs graph.BitBFS
	for sl := 0; sl < o.SlicesPerCycle(); sl++ {
		o.SlicePeers(sl, peers)
		ps := bfs.PathStats(peers, nil)
		t.Add("opera-slice", graph.SpectralGap(peers, 400, rng), ps.Avg(), ps.Max())
	}
	// Static expanders u = 5..8 on k = 12 ToRs with ≈ the same host count
	// (Appendix D uses 644–650 hosts).
	hosts := s.Racks * s.HostsPerRack
	k := 2 * s.Uplinks
	for u := k/2 - 1; u <= k/2+2; u++ {
		d := k - u
		racks := hosts / d
		if racks%2 == 1 && racks*u%2 == 1 {
			racks--
		}
		e, err := topology.NewExpander(racks, d, u, 3)
		if err != nil {
			return nil, err
		}
		ps := bfs.PathStats(e.Adj, nil)
		t.Add(fmt.Sprintf("static-u%d", u), graph.SpectralGap(e.Adj, 400, rng), ps.Avg(), ps.Max())
	}
	// Reference: Ramanujan bound at the slice's active degree.
	t.Add("ramanujan-u5", graph.RamanujanGap(5), 0, 0)
	return []Table{t}, nil
}

// GuardBandSweep validates §3.5's synchronization-tolerance claim: "each
// µs of guard time contributes a 1% relative reduction in low-latency
// capacity and a 0.2% reduction for bulk traffic". It sweeps the guard
// band and reports both capacity factors from the slice-schedule model.
func GuardBandSweep(s Scale) ([]Table, error) {
	t := Table{Name: "ablation_guard_band",
		Header: []string{"guard_us", "lowlat_capacity", "bulk_capacity"}}
	for g := 0; g <= 8; g++ {
		o, err := topology.NewOpera(topology.Config{
			NumRacks: s.Racks, HostsPerRack: s.HostsPerRack, NumSwitches: s.Uplinks,
			GuardBand: eventsim.Time(g) * eventsim.Microsecond, Seed: s.Seed,
		})
		if err != nil {
			return nil, err
		}
		t.Add(g, o.LowLatencyCapacityFactor(), o.BulkCapacityFactor())
	}
	return []Table{t}, nil
}

// Table1RuleCounts regenerates Table 1.
func Table1RuleCounts() []Table {
	t := Table{Name: "table1_rule_counts",
		Header: []string{"racks", "uplinks", "entries", "utilization_pct"}}
	for _, row := range routing.Table1() {
		t.Add(row.Racks, row.Uplinks, row.Entries, row.Utilization*100)
	}
	return []Table{t}
}

// Table2Cost regenerates Table 2 and the α estimate.
func Table2Cost() []Table {
	t := Table{Name: "table2_port_cost", Header: []string{"component", "static_usd", "opera_usd"}}
	for _, row := range cost.Table2() {
		t.Add(row.Component, row.Static, row.Opera)
	}
	t.Add("Total", cost.StaticPortCost(), cost.OperaPortCost())
	t.Add("alpha", 1.0, cost.EstimatedAlpha())
	return []Table{t}
}
