package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric over a run's repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Min    float64   `json:"min"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the benchmark contract reads spreads.
func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if len(sorted) > 0 {
		s.Min = sorted[0]
	}
	s.Q1, s.Median, s.Q3 = exclusiveQuantile(sorted, 1), exclusiveQuantile(sorted, 2), exclusiveQuantile(sorted, 3)
	return s
}

// exclusiveQuantile returns the i-th quartile cut of ascending data.
func exclusiveQuantile(sorted []float64, i int) float64 {
	m := len(sorted)
	switch m {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	j := i * (m + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > m-1 {
		j = m - 1
	}
	delta := float64(i*(m+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// quantile returns the q-quantile (nearest rank) of ascending data, 0
// when there is none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
