package sweep

import (
	"fmt"
	"math"

	"github.com/opera-net/opera/internal/experiments"
	"github.com/opera-net/opera/internal/telemetry"
	"github.com/opera-net/opera/scenario"
)

// Tables renders a finished sweep into the experiments CSV tables:
//
//   - sweep_results: one row per scenario, in spec order — the same
//     summary columns whether the sweep ran local or sharded.
//   - sweep_cells (Replicas > 1): per (network, load) cell, the mean and
//     two-sided 95% Student-t confidence half-width over seed replicas
//     for tail FCT and throughput.
//   - sweep_telemetry (Sketch): per cell, quantiles of the POOLED
//     collector — every replica's sketch merged into one, which is the
//     distribution over all replicas' flows rather than a mean of
//     per-replica quantiles.
//
// Everything is emitted in deterministic order (spec order, cell order,
// replica merges ascending by index), so two Reports with equal contents
// render byte-identical CSVs regardless of how the sweep was sharded.
func Tables(g Grid, specs []scenario.Spec, cells []Cell, rep Report) ([]experiments.Table, error) {
	if len(rep.Results) != len(specs) {
		return nil, fmt.Errorf("sweep: report has %d results for %d specs", len(rep.Results), len(specs))
	}

	netOf := make([]string, len(specs))
	loadOf := make([]float64, len(specs))
	for _, c := range cells {
		for _, i := range c.Indices {
			if i < 0 || i >= len(specs) {
				return nil, fmt.Errorf("sweep: cell %s/%g references spec %d of %d", c.Network, c.Load, i, len(specs))
			}
			netOf[i], loadOf[i] = c.Network, c.Load
		}
	}

	results := experiments.Table{
		Name: "sweep_results",
		Header: []string{"name", "network", "load", "seed", "completed", "flows_done", "flows_total",
			"fct_mean_us", "fct_p50_us", "fct_p99_us", "fct_max_us", "tput_gbps", "tax", "err"},
	}
	for i, r := range rep.Results {
		results.Add(r.Name, netOf[i], loadOf[i], r.Seed, r.Completed, r.FlowsDone, r.FlowsTotal,
			r.All.MeanUs, r.All.P50Us, r.All.P99Us, r.All.MaxUs, r.ThroughputGbps, r.AggregateTax, r.Err)
	}
	tables := []experiments.Table{results}

	if g.Replicas > 1 {
		cellsT := experiments.Table{
			Name: "sweep_cells",
			Header: []string{"network", "load", "replicas",
				"fct_p99_us_mean", "fct_p99_us_ci95", "fct_mean_us_mean", "fct_mean_us_ci95",
				"tput_gbps_mean", "tput_gbps_ci95"},
		}
		for _, c := range cells {
			var p99s, means, tputs []float64
			for _, i := range c.Indices {
				r := rep.Results[i]
				if r.Err != "" {
					continue
				}
				p99s = append(p99s, r.All.P99Us)
				means = append(means, r.All.MeanUs)
				tputs = append(tputs, r.ThroughputGbps)
			}
			p99m, p99h := meanCI95(p99s)
			mm, mh := meanCI95(means)
			tm, th := meanCI95(tputs)
			cellsT.Add(c.Network, c.Load, len(p99s), p99m, p99h, mm, mh, tm, th)
		}
		tables = append(tables, cellsT)
	}

	if g.Sketch {
		telT := experiments.Table{
			Name: "sweep_telemetry",
			Header: []string{"network", "load", "n",
				"fct_mean_us", "fct_p50_us", "fct_p90_us", "fct_p99_us", "fct_p999_us", "fct_max_us", "window_tax"},
		}
		for _, c := range cells {
			pooled, err := pooledCollector(rep.Collectors, c.Indices)
			if err != nil {
				return nil, fmt.Errorf("sweep: cell %s/%g: %w", c.Network, c.Load, err)
			}
			if pooled == nil {
				continue
			}
			s := pooled.Merged().Summary()
			telT.Add(c.Network, c.Load, s.N, s.MeanUs, s.P50Us, s.P90Us, s.P99Us, s.P999Us, s.MaxUs, pooled.WindowTax())
		}
		tables = append(tables, telT)
	}
	return tables, nil
}

// pooledCollector decodes and merges a cell's collector blobs in index
// order; nil when the cell shipped no telemetry.
func pooledCollector(blobs [][]byte, indices []int) (*telemetry.Collector, error) {
	var pooled *telemetry.Collector
	for _, i := range indices {
		if i < 0 || i >= len(blobs) || blobs[i] == nil {
			continue
		}
		var col telemetry.Collector
		if err := col.UnmarshalBinary(blobs[i]); err != nil {
			return nil, fmt.Errorf("decode collector %d: %w", i, err)
		}
		if pooled == nil {
			pooled = &col
		} else if err := pooled.Merge(&col); err != nil {
			return nil, fmt.Errorf("merge collector %d: %w", i, err)
		}
	}
	return pooled, nil
}

// meanCI95 returns the sample mean and the half-width of its two-sided
// 95% Student-t confidence interval; the half-width is 0 with fewer
// than two samples.
func meanCI95(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return mean, tValue95(n-1) * sd / math.Sqrt(float64(n))
}

// Two-sided 95% Student-t critical values; untabulated degrees of
// freedom round DOWN to the nearest entry (a slightly wider, i.e.
// conservative, interval).
var (
	t95df = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
		16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 40, 60, 120}
	t95v = []float64{12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
		2.021, 2.000, 1.980}
)

func tValue95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df >= 1000 {
		return 1.960
	}
	v := t95v[0]
	for i, d := range t95df {
		if df < d {
			break
		}
		v = t95v[i]
	}
	return v
}
