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
// The counts live in pages of pageSize buckets (1 KiB), allocated only
// when a bucket in them is first written and found through a table of
// page pointers, so a sketch holds touched pages × 1 KiB plus one pointer
// per page of its span. A new bucket allocates at most one page, and
// growing the span in either direction copies page pointers, never
// counts. The zero value is not usable; construct with NewSketch.
type Sketch struct {
	alpha   float64
	lgGamma float64 // ln γ, the bucket index divisor

	count    uint64
	sum      float64
	min, max float64
	zero     uint64 // observations in [0, minIndexable]

	// Bucket idx counts observations x with ceil(ln x / ln γ) == idx, i.e.
	// x in (γ^(idx−1), γ^idx]. The span [base, base+n) runs from the
	// lowest bucket ever written to the highest; it is what the codec
	// writes and Quantile walks. A decoded span keeps its counts in flat,
	// one exact-size slice (n = len(flat)), until the sketch is first
	// written to; otherwise they are in the paged store, nil while the
	// span is empty. Either way the struct stays 96 B.
	base  int
	flat  []uint64
	store *store
}

// store is a Sketch's paged bucket store: pages[k] holds buckets
// [org+k·pageSize, org+(k+1)·pageSize), a nil page reading as zeros. The
// pages cover the span [base, base+n); org is the first bucket the store
// held, less whole pages grown below it.
type store struct {
	n, org int
	pages  []*page
}

// A page of the store holds pageSize buckets, 1 KiB of counts.
const (
	pageBits = 7
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page [pageSize]uint64

// NewSketch returns an empty sketch with the given relative-error bound
// (0 means DefaultAlpha). Alpha must be below 1.
func NewSketch(alpha float64) *Sketch {
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if !(alpha > 0 && alpha < 1) { // also rejects NaN
		panic(fmt.Sprintf("telemetry: alpha %v outside (0,1)", alpha))
	}
	return &Sketch{
		alpha:   alpha,
		lgGamma: math.Log(gammaOf(alpha)),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// gammaOf returns the bucket width γ = (1+α)/(1−α).
func gammaOf(alpha float64) float64 { return (1 + alpha) / (1 - alpha) }

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
	idx := s.index(x)
	if st := s.store; st != nil && uint(idx-s.base) < uint(st.n) {
		o := idx - st.org
		if pg := st.pages[o>>pageBits]; pg != nil {
			pg[o&pageMask]++
			return
		}
	}
	s.bump(idx, 1)
}

// index maps a positive observation to its bucket index.
func (s *Sketch) index(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lgGamma))
}

// span returns the first bucket of the span and its length.
func (s *Sketch) span() (base, n int) {
	if s.store != nil {
		return s.base, s.store.n
	}
	return s.base, len(s.flat)
}

// bump adds c to bucket idx, widening the span and allocating the
// bucket's page as needed.
func (s *Sketch) bump(idx int, c uint64) {
	st := s.widen(idx, idx)
	o := idx - st.org
	st.page(o >> pageBits)[o&pageMask] += c
}

// widen extends the span to cover buckets [lo, hi] and the page table to
// cover the span, and returns the store. An empty span starts at lo, and
// a flat one moves into pages first, so that every write lands in a page.
func (s *Sketch) widen(lo, hi int) *store {
	st := s.store
	if st == nil {
		if len(s.flat) == 0 {
			s.base = lo
		}
		st = &store{n: len(s.flat), org: s.base, pages: make([]*page, (len(s.flat)+pageMask)>>pageBits)}
		st.add(s.base, s.flat)
		s.store, s.flat = st, nil
	}
	if lo < s.base {
		s.base, st.n = lo, st.n+s.base-lo
	}
	if hi >= s.base+st.n {
		st.n = hi - s.base + 1
	}
	if below := st.org - s.base; below > 0 {
		// Grow down by at least as many pages as the table holds, so a
		// sketch growing downward copies its table O(log pages) times.
		grow := max((below+pageMask)>>pageBits, len(st.pages))
		table := make([]*page, grow+len(st.pages))
		copy(table[grow:], st.pages)
		st.org, st.pages = st.org-grow*pageSize, table
	}
	if top := (s.base + st.n - 1 - st.org) >> pageBits; top >= len(st.pages) {
		st.pages = append(st.pages, make([]*page, top+1-len(st.pages))...)
	}
	return st
}

// page returns the k-th page, allocating it if absent.
func (st *store) page(k int) *page {
	pg := st.pages[k]
	if pg == nil {
		pg = new(page)
		st.pages[k] = pg
	}
	return pg
}

// run returns the counts of buckets idx, idx+1, … up to end or the end of
// idx's page, whichever comes first, and how many buckets that is; the
// counts are nil where the page is absent. idx and end lie in the span.
func (s *Sketch) run(idx, end int) ([]uint64, int) {
	st := s.store
	if st == nil {
		return s.flat[idx-s.base : end-s.base], end - idx
	}
	o := idx - st.org
	m := min(end-idx, pageSize-o&pageMask)
	if pg := st.pages[o>>pageBits]; pg != nil {
		return pg[o&pageMask:][:m], m
	}
	return nil, m
}

// at returns the count of bucket idx, which lies in the span.
func (s *Sketch) at(idx int) uint64 {
	if c, _ := s.run(idx, idx+1); c != nil {
		return c[0]
	}
	return 0
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
	base, n := s.span()
	for idx, end := base, base+n; idx < end; {
		c, m := s.run(idx, end)
		for i, v := range c {
			cum += float64(v)
			if cum > rank {
				gamma := gammaOf(s.alpha)
				v := 2 * math.Pow(gamma, float64(idx+i)) / (gamma + 1)
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
		idx += m
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
	// The span grows to other's lowest and highest nonzero buckets, and
	// other's counts add page by page; an all-zero run allocates nothing.
	lo, n := other.span()
	hi := lo + n - 1
	for lo <= hi && other.at(lo) == 0 {
		lo++
	}
	for hi > lo && other.at(hi) == 0 {
		hi--
	}
	if lo > hi {
		return
	}
	st := s.widen(lo, hi)
	for idx := lo; idx <= hi; {
		c, m := other.run(idx, hi+1)
		st.add(idx, c)
		idx += m
	}
}

// add adds c[i] to bucket idx+i for each i, allocating a page only for a
// nonzero count. The buckets lie in the span.
func (st *store) add(idx int, c []uint64) {
	for len(c) > 0 {
		if c[0] == 0 {
			idx, c = idx+1, c[1:]
			continue
		}
		o := idx - st.org
		dst := st.page(o >> pageBits)[o&pageMask:]
		m := min(len(dst), len(c))
		for i, v := range c[:m] {
			dst[i] += v
		}
		idx, c = idx+m, c[m:]
	}
}
