package experiments

import (
	"github.com/opera-net/opera/internal/cost"
	"github.com/opera-net/opera/internal/fluid"
	"github.com/opera-net/opera/internal/topology"
	"github.com/opera-net/opera/internal/workload"
)

// AlphaSweep is the x-axis of Figures 12 and 15.
var AlphaSweep = []float64{1.0, 1.25, 1.5, 1.75, 2.0}

// CostSweepWorkload names the Figure 12 traffic patterns.
type CostSweepWorkload string

// The three patterns of §5.6 plus the all-to-all reference line.
const (
	WorkloadHotRack     CostSweepWorkload = "hotrack"
	WorkloadSkew        CostSweepWorkload = "skew02"
	WorkloadPermutation CostSweepWorkload = "permutation"
	WorkloadAllToAll    CostSweepWorkload = "alltoall"
)

// FigCostSweep regenerates Figure 12 (k=24) or Figure 15 (k=12):
// normalized throughput of cost-equivalent Opera, expander and folded-Clos
// networks versus the port-cost premium α, for hot-rack, skew[0.2,1] and
// permutation workloads (plus Opera's all-to-all line on the permutation
// panel).
func FigCostSweep(k int, figName string) ([]Table, error) {
	return FigCostSweepAlphas(k, figName, AlphaSweep)
}

// FigCostSweepAlphas is FigCostSweep at selectable α resolution (the
// benchmark harness samples a single point; the cmd runs the full sweep).
func FigCostSweepAlphas(k int, figName string, alphas []float64) ([]Table, error) {
	t := Table{Name: figName,
		Header: []string{"workload", "alpha", "opera", "expander", "foldedclos", "opera_alltoall"}}
	for _, wl := range []CostSweepWorkload{WorkloadHotRack, WorkloadSkew, WorkloadPermutation} {
		for _, alpha := range alphas {
			eq := cost.Equivalents(k, alpha)
			operaTheta, err := operaFluid(eq, wl)
			if err != nil {
				return nil, err
			}
			expTheta, err := expanderFluid(eq, wl)
			if err != nil {
				return nil, err
			}
			closTheta := fluid.ClosThroughput(alpha)
			row := []any{string(wl), alpha, operaTheta, expTheta, closTheta}
			if wl == WorkloadPermutation {
				a2a, err := operaFluid(eq, WorkloadAllToAll)
				if err != nil {
					return nil, err
				}
				row = append(row, a2a)
			} else {
				row = append(row, "")
			}
			t.Add(row...)
		}
	}
	return []Table{t}, nil
}

// demandFor builds the rack-level demand matrix (host-rate units) for a
// pattern on a network with n racks and d hosts per rack.
func demandFor(wl CostSweepWorkload, n int, d float64, seed int64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	switch wl {
	case WorkloadHotRack:
		m[0][1] = d
	case WorkloadSkew:
		// skew[0.2,1] per [29]: 20% of racks active at full load, pattern
		// a permutation among the active set.
		flows := workload.Skew(n, 1, 0.2, 1, seed)
		// Convert the all-to-all-among-active into per-rack totals of d:
		// normalize each active rack's egress to d.
		out := make([]float64, n)
		for _, f := range flows {
			m[f.Src][f.Dst] += 1
			out[f.Src]++
		}
		for a := 0; a < n; a++ {
			if out[a] > 0 {
				for b := 0; b < n; b++ {
					m[a][b] = m[a][b] / out[a] * d
				}
			}
		}
	case WorkloadPermutation:
		for a := 0; a < n; a++ {
			m[a][(a+n/2)%n] = d
		}
	case WorkloadAllToAll:
		per := d / float64(n-1)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b {
					m[a][b] = per
				}
			}
		}
	}
	return m
}

func operaFluid(eq cost.Equivalent, wl CostSweepWorkload) (float64, error) {
	o, err := topology.NewOpera(topology.Config{
		NumRacks:     eq.OperaRacks,
		HostsPerRack: eq.OperaHostsPerRack,
		NumSwitches:  eq.K / 2,
		Seed:         1,
		UseLifting:   eq.OperaRacks > 512,
	})
	if err != nil {
		return 0, err
	}
	demand := demandFor(wl, eq.OperaRacks, float64(eq.OperaHostsPerRack), 11)
	return fluid.RotorBulkThroughput(o, demand, fluid.DefaultRotorParams()), nil
}

func expanderFluid(eq cost.Equivalent, wl CostSweepWorkload) (float64, error) {
	// Average over realizations: single random regular graphs have
	// hotspot variance, especially for the single-pair hot-rack demand.
	const seeds = 3
	var sum float64
	for s := int64(1); s <= seeds; s++ {
		e, err := topology.NewExpander(eq.ExpanderRacks, eq.ExpanderD, eq.ExpanderU, s*101)
		if err != nil {
			return 0, err
		}
		demand := demandFor(wl, eq.ExpanderRacks, float64(eq.ExpanderD), 11+s)
		sum += fluid.ExpanderThroughput(e, demand)
	}
	return sum / seeds, nil
}

// Fig12CostSweepK24 regenerates Figure 12 (k = 24, 5,184-host networks).
func Fig12CostSweepK24() ([]Table, error) { return FigCostSweep(24, "fig12_cost_sweep_k24") }

// Fig15CostSweepK12 regenerates Figure 15 (k = 12, 648-host networks).
func Fig15CostSweepK12() ([]Table, error) { return FigCostSweep(12, "fig15_cost_sweep_k12") }

// AblationVLB quantifies the contribution of RotorLB's two-hop offloading
// (a design choice DESIGN.md calls out): Opera throughput with and without
// VLB for the skewed patterns at α = 4/3, k = 12.
func AblationVLB() ([]Table, error) {
	t := Table{Name: "ablation_vlb",
		Header: []string{"workload", "with_vlb", "without_vlb"}}
	eq := cost.Equivalents(12, 4.0/3.0)
	o, err := topology.NewOpera(topology.Config{
		NumRacks:     eq.OperaRacks,
		HostsPerRack: eq.OperaHostsPerRack,
		NumSwitches:  6,
		Seed:         1,
	})
	if err != nil {
		return nil, err
	}
	for _, wl := range []CostSweepWorkload{WorkloadHotRack, WorkloadSkew, WorkloadPermutation, WorkloadAllToAll} {
		demand := demandFor(wl, eq.OperaRacks, float64(eq.OperaHostsPerRack), 11)
		with := fluid.RotorBulkThroughput(o, demand, fluid.DefaultRotorParams())
		params := fluid.DefaultRotorParams()
		params.DisableVLB = true
		without := fluid.RotorBulkThroughput(o, demand, params)
		t.Add(string(wl), with, without)
	}
	return []Table{t}, nil
}
