// Package workload generates the traffic the Opera evaluation runs:
// empirical flow-size distributions (Figure 1), open-loop Poisson arrival
// processes (§5.1), and the synthetic patterns of §5.2–5.6 (all-to-all
// shuffle, hot rack, skew[p,1], host permutation).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// CDFAnchor is one point of an empirical flow-size CDF.
type CDFAnchor struct {
	Bytes float64
	F     float64 // cumulative fraction of flows with size <= Bytes
}

// FlowSizeDist is a piecewise log-linear empirical flow-size distribution.
// Sampling uses inverse-transform over the anchors with interpolation in
// log(size), the standard reconstruction of published trace CDFs.
type FlowSizeDist struct {
	Name    string
	anchors []CDFAnchor
}

// NewFlowSizeDist validates anchors (positive sizes, monotone in both
// coordinates, final F = 1) and returns the distribution.
func NewFlowSizeDist(name string, anchors []CDFAnchor) (*FlowSizeDist, error) {
	if len(anchors) < 2 {
		return nil, fmt.Errorf("workload: need >= 2 anchors, got %d", len(anchors))
	}
	for i, a := range anchors {
		if a.Bytes <= 0 {
			return nil, fmt.Errorf("workload: anchor %d: non-positive size %v", i, a.Bytes)
		}
		if a.F < 0 || a.F > 1 {
			return nil, fmt.Errorf("workload: anchor %d: F=%v out of range", i, a.F)
		}
		if i > 0 && (a.Bytes <= anchors[i-1].Bytes || a.F < anchors[i-1].F) {
			return nil, fmt.Errorf("workload: anchors not monotone at %d", i)
		}
	}
	if anchors[len(anchors)-1].F != 1 {
		return nil, fmt.Errorf("workload: last anchor F=%v, want 1", anchors[len(anchors)-1].F)
	}
	return &FlowSizeDist{Name: name, anchors: anchors}, nil
}

// MustNewFlowSizeDist is NewFlowSizeDist but panics on error.
func MustNewFlowSizeDist(name string, anchors []CDFAnchor) *FlowSizeDist {
	d, err := NewFlowSizeDist(name, anchors)
	if err != nil {
		panic(err)
	}
	return d
}

// Sample draws one flow size in bytes.
func (d *FlowSizeDist) Sample(rng *rand.Rand) int64 {
	return d.Quantile(rng.Float64())
}

// Quantile returns the flow size at cumulative probability p.
func (d *FlowSizeDist) Quantile(p float64) int64 {
	a := d.anchors
	if p <= a[0].F {
		return int64(a[0].Bytes)
	}
	i := sort.Search(len(a), func(i int) bool { return a[i].F >= p })
	if i >= len(a) {
		return int64(a[len(a)-1].Bytes)
	}
	lo, hi := a[i-1], a[i]
	if hi.F == lo.F {
		return int64(hi.Bytes)
	}
	t := (p - lo.F) / (hi.F - lo.F)
	logSize := math.Log(lo.Bytes) + t*(math.Log(hi.Bytes)-math.Log(lo.Bytes))
	return int64(math.Exp(logSize) + 0.5)
}

// Mean returns the expected flow size, integrated numerically over the
// quantile function (exact up to the 1e-4 quantile grid).
func (d *FlowSizeDist) Mean() float64 {
	const steps = 10000
	var sum float64
	for i := 0; i < steps; i++ {
		p := (float64(i) + 0.5) / steps
		sum += float64(d.Quantile(p))
	}
	return sum / steps
}

// ByteFractionBelow returns the fraction of total bytes carried by flows of
// size <= x — Figure 1's bottom panel, and the quantity that determines how
// much traffic Opera's 15 MB threshold routes over indirect paths.
func (d *FlowSizeDist) ByteFractionBelow(x float64) float64 {
	const steps = 10000
	var below, total float64
	for i := 0; i < steps; i++ {
		p := (float64(i) + 0.5) / steps
		s := float64(d.Quantile(p))
		total += s
		if s <= x {
			below += s
		}
	}
	if total == 0 {
		return 0
	}
	return below / total
}

// Anchors returns the distribution's anchor points.
func (d *FlowSizeDist) Anchors() []CDFAnchor { return d.anchors }

// The three published workloads of Figure 1. Anchor tables are digitized
// reconstructions of the published CDFs, matching the shapes the paper
// reports: Datamining [21] is extremely heavy-tailed (most bytes in >100 MB
// flows, so its bulk rides Opera's direct paths); Websearch [4] tops out
// near 30 MB (nearly all bytes below Opera's 15 MB threshold — the paper's
// all-indirect worst case); Hadoop [39] has a ~100 KB median inter-rack
// flow (the Figure 8 shuffle size).

// Datamining returns the Microsoft data-mining distribution (VL2 [21]).
func Datamining() *FlowSizeDist {
	return MustNewFlowSizeDist("datamining", []CDFAnchor{
		{100, 0},
		{180, 0.10},
		{250, 0.20},
		{560, 0.30},
		{900, 0.40},
		{1100, 0.50},
		{1870, 0.60},
		{3160, 0.70},
		{10_000, 0.80},
		{400_000, 0.90},
		{3.16e6, 0.95},
		{1e8, 0.98},
		{1e9, 1.0},
	})
}

// Websearch returns the Microsoft web-search distribution (DCTCP [4]).
func Websearch() *FlowSizeDist {
	return MustNewFlowSizeDist("websearch", []CDFAnchor{
		{1_000, 0},
		{10_000, 0.15},
		{20_000, 0.20},
		{30_000, 0.30},
		{50_000, 0.40},
		{80_000, 0.53},
		{200_000, 0.60},
		{1_000_000, 0.70},
		{2_000_000, 0.80},
		{5_000_000, 0.90},
		{10_000_000, 0.97},
		{30_000_000, 1.0},
	})
}

// Hadoop returns the Facebook Hadoop-cluster distribution [39].
func Hadoop() *FlowSizeDist {
	return MustNewFlowSizeDist("hadoop", []CDFAnchor{
		{100, 0},
		{1_000, 0.10},
		{10_000, 0.25},
		{50_000, 0.40},
		{100_000, 0.50},
		{300_000, 0.70},
		{1_000_000, 0.85},
		{10_000_000, 0.96},
		{100_000_000, 0.99},
		{1_000_000_000, 1.0},
	})
}
