// Package stats provides the small set of statistics primitives the Opera
// evaluation needs: exact percentiles over sample batches, empirical CDFs,
// fixed-bin histograms, and throughput time series.
//
// Everything here is exact (no sketches): the simulations in this repository
// produce at most a few million samples per experiment, which comfortably
// fits in memory, and the paper reports tail percentiles (99th) for which
// approximate quantile sketches would add avoidable error.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers exact order-statistic
// queries. The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.sum += x
}

// AddAll appends many observations.
func (s *Sample) AddAll(xs ...float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or NaN if empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.sum / float64(len(s.xs))
}

// Min returns the smallest observation, or NaN if empty.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation, or NaN if empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Stddev returns the sample standard deviation, or NaN for fewer than two
// observations.
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n < 2 {
		return math.NaN()
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks — quantile type 7, the numpy/R
// default: h = p/100·(n−1), interpolating between the floor(h)-th and
// ceil(h)-th order statistics — or NaN if empty. Percentile(50) is the
// median; Percentile(99) is the tail metric the paper reports. These are
// the semantics every figure in this repository is generated with.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	s.sort()
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	// Linear interpolation between closest ranks (type 7, the numpy/R
	// default), so results vary smoothly with p.
	h := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return s.xs[lo]
	}
	frac := h - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns Percentile(50).
func (s *Sample) Median() float64 { return s.Percentile(50) }

// P99 returns Percentile(99), the paper's tail flow-completion-time metric.
func (s *Sample) P99() float64 { return s.Percentile(99) }

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Reset discards all observations, retaining capacity.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = true
	s.sum = 0
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// CDFPoint is one point of an empirical CDF: a value x and the cumulative
// fraction F of observations <= x.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical CDF of the sample as a step function evaluated
// at every distinct observation.
func (s *Sample) CDF() []CDFPoint {
	if len(s.xs) == 0 {
		return nil
	}
	s.sort()
	n := float64(len(s.xs))
	var out []CDFPoint
	for i := 0; i < len(s.xs); i++ {
		// Collapse runs of equal values into one point at the run's end.
		if i+1 < len(s.xs) && s.xs[i+1] == s.xs[i] {
			continue
		}
		out = append(out, CDFPoint{X: s.xs[i], F: float64(i+1) / n})
	}
	return out
}
