package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// checkQuantile asserts the sketch's pinned guarantee against the exact
// sorted sample: Quantile(q) must be within alpha relative error of the
// order statistics anchoring the type-7 rank h = q·(n−1).
func checkQuantile(t *testing.T, s *Sketch, sorted []float64, q float64) {
	t.Helper()
	got := s.Quantile(q)
	h := q * float64(len(sorted)-1)
	lo := sorted[int(math.Floor(h))]
	hi := sorted[int(math.Ceil(h))]
	a := s.alpha
	const slack = 1e-12
	if got < lo*(1-a)-slack || got > hi*(1+a)+slack {
		t.Fatalf("Quantile(%v) = %v outside [%v, %v] (order stats %v..%v, alpha %v)",
			q, got, lo*(1-a), hi*(1+a), lo, hi, a)
	}
}

// quantileProbes are the ranks every accuracy test checks — the paper's
// tail metrics plus the median.
var quantileProbes = []float64{0, 0.10, 0.50, 0.90, 0.99, 0.999, 1}

func TestSketchRankGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func() float64{
		// Log-normal spanning several decades, like FCT distributions.
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64()*2 + 5) },
		// Heavy-tailed Pareto-like: the datamining shape.
		"heavytail": func() float64 { return 10 / math.Pow(rng.Float64()+1e-9, 1.5) },
		"uniform":   func() float64 { return rng.Float64() * 1000 },
		"constant":  func() float64 { return 42 },
		// Two-point mass: exercises buckets with large counts.
		"bimodal": func() float64 {
			if rng.Intn(2) == 0 {
				return 3
			}
			return 30_000
		},
	}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			s := NewSketch(0.01)
			xs := make([]float64, 50_000)
			for i := range xs {
				xs[i] = draw()
				s.Add(xs[i])
			}
			sort.Float64s(xs)
			for _, q := range quantileProbes {
				checkQuantile(t, s, xs, q)
			}
			if s.min != xs[0] || s.max != xs[len(xs)-1] {
				t.Fatalf("min/max not exact: %v/%v vs %v/%v", s.min, s.max, xs[0], xs[len(xs)-1])
			}
		})
	}
}

// The sketch state is a pure function of the observation multiset:
// shuffling the insertion order changes nothing (Sum to within an ulp).
func TestSketchInsertionOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64() * 3)
	}
	a, b := NewSketch(0.01), NewSketch(0.01)
	for _, x := range xs {
		a.Add(x)
	}
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, x := range xs {
		b.Add(x)
	}
	for _, q := range quantileProbes {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("Quantile(%v): %v vs %v after shuffle", q, a.Quantile(q), b.Quantile(q))
		}
	}
	if a.count != b.count || a.min != b.min || a.max != b.max {
		t.Fatal("count/min/max differ after shuffle")
	}
	if rel := math.Abs(a.sum-b.sum) / a.sum; rel > 1e-12 {
		t.Fatalf("sums differ by %v relative", rel)
	}
}

// Merging is exactly associative: any merge tree over shards produces
// identical bucket state, hence identical quantiles — the property that
// lets process-sharded sweeps combine results.
func TestSketchMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shards := make([]*Sketch, 5)
	whole := NewSketch(0.01)
	for i := range shards {
		shards[i] = NewSketch(0.01)
		for j := 0; j < 4_000; j++ {
			x := math.Exp(rng.NormFloat64()*2 + float64(i))
			shards[i].Add(x)
			whole.Add(x)
		}
	}
	// Left fold, right fold, and pairwise tree.
	left := NewSketch(0.01)
	for _, sh := range shards {
		left.Merge(sh)
	}
	right := NewSketch(0.01)
	for i := len(shards) - 1; i >= 0; i-- {
		right.Merge(shards[i])
	}
	ab, cd := NewSketch(0.01), NewSketch(0.01)
	ab.Merge(shards[0])
	ab.Merge(shards[1])
	cd.Merge(shards[2])
	cd.Merge(shards[3])
	tree := NewSketch(0.01)
	tree.Merge(ab)
	tree.Merge(cd)
	tree.Merge(shards[4])

	for _, o := range []*Sketch{right, tree, whole} {
		if left.count != o.count || left.min != o.min || left.max != o.max {
			t.Fatal("count/min/max differ across merge orders")
		}
		for _, q := range quantileProbes {
			if left.Quantile(q) != o.Quantile(q) {
				t.Fatalf("Quantile(%v) differs across merge orders: %v vs %v", q, left.Quantile(q), o.Quantile(q))
			}
		}
		if rel := math.Abs(left.sum-o.sum) / left.sum; rel > 1e-12 {
			t.Fatalf("sums differ by %v relative", rel)
		}
	}
}

func TestSketchEmptyAndEdgeValues(t *testing.T) {
	s := NewSketch(0)
	if s.alpha != DefaultAlpha {
		t.Fatalf("default alpha = %v", s.alpha)
	}
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty sketch should answer NaN")
	}
	s.Add(0) // underflow bucket
	s.Add(5)
	if s.count != 2 || s.min != 0 || s.max != 5 {
		t.Fatalf("count/min/max: %d %v %v", s.count, s.min, s.max)
	}
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("Quantile(0) = %v", q)
	}
	if q := s.Quantile(1); q != 5 {
		t.Fatalf("Quantile(1) = %v", q)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative Add should panic")
			}
		}()
		s.Add(-1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("alpha-mismatched Merge should panic")
			}
		}()
		o := NewSketch(0.05)
		o.Add(1)
		s.Merge(o)
	}()
}

// A single observation is reported within alpha at every rank, and the
// merged empty sketch is a no-op.
func TestSketchSingletonAndEmptyMerge(t *testing.T) {
	s := NewSketch(0.01)
	s.Add(123.456)
	for _, q := range quantileProbes {
		got := s.Quantile(q)
		if math.Abs(got-123.456)/123.456 > 0.01 {
			t.Fatalf("Quantile(%v) = %v, want ~123.456", q, got)
		}
	}
	before := roundTripSketch(t, s)
	s.Merge(NewSketch(0.01))
	s.Merge(nil)
	sameSketch(t, "after merging empty sketches", s, before)
}

// TestAllocsSketchPages pins what the paged store allocates: (a) nothing
// for an observation in a bucket whose page is held; (b) for 180k
// log-normal observations at α = 0.1%, at most 1.25 × 1 KiB per touched
// page plus the page table, where a store copied whole on every growth
// allocated 12–16× its live buckets; (c) for decoding 3,000 tags of one
// observation each, what decoding the same tags empty allocates plus one
// 16 B tiny-allocator block per tag, since each span is one exact-size
// slice, and a Sketch struct of at most 96 B.
func TestAllocsSketchPages(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 180_000)
		for i := range xs {
			xs[i] = math.Exp(rng.NormFloat64()*2 + 5)
		}
		var s *Sketch
		alloc := allocBytes(func() {
			s = NewSketch(0.001)
			for _, x := range xs {
				s.Add(x)
			}
		})
		touched := map[int]bool{}
		for _, x := range xs {
			touched[(s.index(x)-s.store.org)>>pageBits] = true
		}
		bound := 1.25*float64(len(touched)*pageSize*8) + float64(8*cap(s.store.pages))
		if float64(alloc) > bound {
			t.Errorf("seed %d: %d observations over %d pages allocated %d B (bound %.0f B)",
				seed, len(xs), len(touched), alloc, bound)
		}
		t.Logf("seed %d: %d pages touched, %d B allocated", seed, len(touched), alloc)
		if n := testing.AllocsPerRun(100, func() { s.Add(xs[0]) }); n != 0 {
			t.Errorf("seed %d: Add into a held page allocated %v times", seed, n)
		}
	}

	tagged := func(observe bool) []byte {
		c := NewCollector(Opts{}, 0)
		for i := range 3_000 {
			tally := c.tally(fmt.Sprintf("t%d", i))
			if observe {
				tally.Sketch.Add(float64(i + 1))
			}
		}
		blob, _ := c.MarshalBinary()
		return blob
	}
	decode := func(blob []byte) uint64 {
		return allocBytes(func() {
			var c Collector
			if err := c.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
		})
	}
	full, empty := decode(tagged(true)), decode(tagged(false))
	if full > empty+3_000*16 {
		t.Errorf("decoding 3000 one-observation tags allocated %d B, %d B more than empty ones (bound %d B)",
			full, full-empty, 3_000*16)
	}
	t.Logf("decoding 3000 tags: %d B with one observation each, %d B empty", full, empty)
	if size := unsafe.Sizeof(Sketch{}); size > 96 {
		t.Errorf("a Sketch is %d B, want at most 96 B", size)
	}
}
