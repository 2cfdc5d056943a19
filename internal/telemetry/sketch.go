// Package telemetry provides the streaming statistics that keep unbounded
// simulations flat-memory: mergeable quantile sketches with a pinned
// relative-error bound, trailing-window counters, and the per-class /
// per-tag Collector that sim.Metrics drives under sketch retention.
//
// The repository's exact primitives (internal/stats) retain every
// observation, which is the right trade for figure reproduction — a few
// million samples, byte-exact percentiles — but grows without bound on the
// ROADMAP's month-long soaks. Everything in this package is O(1) per
// observation and O(log range) space, and every structure merges, so
// results from process-sharded sweeps can be combined where raw flow lists
// cannot.
package telemetry

import (
	"fmt"
	"math"
)

// DefaultAlpha is the sketches' default relative-error bound: quantile
// estimates are within ±1% of the true value.
const DefaultAlpha = 0.01

// minIndexable is the smallest observation given its own log-spaced
// bucket; values in [0, minIndexable] share one underflow bucket. Flow
// completion times are recorded in microseconds and the simulator's
// physics keep them well above a nanosecond, so the underflow bucket is
// effectively unused.
const minIndexable = 1e-9

// Sketch is a mergeable streaming quantile sketch over non-negative
// observations, in the DDSketch family: log-spaced buckets of width γ =
// (1+α)/(1−α) hold exact counts, so Quantile answers carry a guaranteed
// relative error of at most α. It fits the role the literature usually
// hands to t-digest or KLL with two properties those lack:
//
//   - Insertion-order independence: the state is a pure function of the
//     observation multiset (bucket counts commute), so a simulation's
//     sketch is deterministic under any event interleaving that preserves
//     the observations — stronger than "deterministic given insertion
//     order". (The sum behind Mean alone accumulates in arrival order
//     and can differ in the last ulp across orders; the count, min, max
//     and all quantiles are exactly order-independent.)
//   - Exact merge associativity: Merge adds bucket counts, so any merge
//     tree over per-shard sketches yields identical quantiles — the
//     property process-sharded sweeps need.
//
// Space is O(log(max/min)/α): ~1 000 buckets for six decades at α = 1%.
// The zero value is not usable; construct with NewSketch.
type Sketch struct {
	alpha   float64
	gamma   float64
	lgGamma float64 // ln γ, the bucket index divisor

	count    uint64
	sum      float64
	min, max float64
	zero     uint64 // observations in [0, minIndexable]

	// buckets[i] counts observations x with ceil(ln x / ln γ) == base+i,
	// i.e. x in (γ^(base+i−1), γ^(base+i)].
	base    int
	buckets []uint64
}

// NewSketch returns an empty sketch with the given relative-error bound
// (0 means DefaultAlpha). Alpha must be below 1.
func NewSketch(alpha float64) *Sketch {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if !(alpha > 0 && alpha < 1) { // also rejects NaN
		panic(fmt.Sprintf("telemetry: alpha %v outside (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lgGamma: math.Log(gamma),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Add records one observation. Observations must be non-negative.
func (s *Sketch) Add(x float64) {
	if x < 0 || math.IsNaN(x) {
		panic(fmt.Sprintf("telemetry: observation %v not representable", x))
	}
	s.count++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x <= minIndexable {
		s.zero++
		return
	}
	s.bump(s.index(x), 1)
}

// index maps a positive observation to its bucket index.
func (s *Sketch) index(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lgGamma))
}

// bump adds n to the bucket at absolute index idx, growing the store as
// needed.
func (s *Sketch) bump(idx int, n uint64) {
	switch {
	case len(s.buckets) == 0:
		s.base = idx
		s.buckets = append(s.buckets, 0)
	case idx < s.base:
		grown := make([]uint64, s.base-idx+len(s.buckets))
		copy(grown[s.base-idx:], s.buckets)
		s.buckets = grown
		s.base = idx
	case idx >= s.base+len(s.buckets):
		for idx >= s.base+len(s.buckets) {
			s.buckets = append(s.buckets, 0)
		}
	}
	s.buckets[idx-s.base] += n
}

// Mean returns the arithmetic mean, or NaN if empty.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.count)
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) with
// relative error at most Alpha: the returned value v satisfies
// |v − x| ≤ Alpha·x for x the order statistic of zero-based rank
// ⌊q·(n−1)⌋ — the lower anchor of the type-7 interpolation the exact
// stats.Percentile uses, so the two agree to within the bound wherever
// adjacent order statistics do. Returns NaN if the sketch is empty.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("telemetry: quantile %v out of range", q))
	}
	rank := q * float64(s.count-1)
	cum := float64(s.zero)
	if cum > rank {
		return s.min
	}
	for i, c := range s.buckets {
		cum += float64(c)
		if cum > rank {
			v := 2 * math.Pow(s.gamma, float64(s.base+i)) / (s.gamma + 1)
			// Clamp to the observed range: the end buckets are only
			// partially filled, and min/max are tracked exactly.
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// Summary is the module's one flow-completion-time summary, in
// microseconds: the observation count, the mean and max, and the
// quantiles reported everywhere an FCT distribution surfaces — the
// paper's p50 and p99 plus p90 and the deeper p99.9 a soak exists to
// observe. A Sketch fills it with N, MeanUs and MaxUs exact and the
// percentiles within the sketch's relative-error bound; scenario fills it
// exactly from retained flows (scenario.FCTStats). The JSON tags are the
// /status wire names. Every field is zero for an empty distribution.
type Summary struct {
	N      int     `json:"n"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Summary reads the sketch out; see the Summary type.
func (s *Sketch) Summary() Summary {
	if s.count == 0 {
		return Summary{}
	}
	return Summary{
		N: int(s.count), MeanUs: s.Mean(), MaxUs: s.max,
		P50Us: s.Quantile(0.50), P90Us: s.Quantile(0.90),
		P99Us: s.Quantile(0.99), P999Us: s.Quantile(0.999),
	}
}

// Merge folds other into s. Both sketches must share the same Alpha (they
// would otherwise disagree on bucket boundaries); Merge panics otherwise.
// Every sketch a Collector holds, built or decoded, has the collector's
// alpha, so a mismatch is a programming error. Merging adds bucket counts,
// so it is exactly associative and commutative, and other is left
// unchanged.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.count == 0 {
		return
	}
	if other.alpha != s.alpha {
		panic(fmt.Sprintf("telemetry: merging sketches with alpha %v and %v", s.alpha, other.alpha))
	}
	s.count += other.count
	s.sum += other.sum
	s.zero += other.zero
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	for i, c := range other.buckets {
		if c != 0 {
			s.bump(other.base+i, c)
		}
	}
}
