package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func addAll(s *Sample, xs ...float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Max()) || !math.IsNaN(s.Percentile(50)) {
		t.Fatal("empty sample should return NaN")
	}
	addAll(&s, 3, 1, 2)
	if s.N() != 3 {
		t.Fatalf("N = %d, want 3", s.N())
	}
	if s.sum != 6 {
		t.Fatalf("sum = %v, want 6", s.sum)
	}
	if s.Mean() != 2 {
		t.Fatalf("Mean = %v, want 2", s.Mean())
	}
	if s.Percentile(0) != 1 || s.Max() != 3 {
		t.Fatalf("P0/Max = %v/%v, want 1/3", s.Percentile(0), s.Max())
	}
	if s.Median() != 2 {
		t.Fatalf("Median = %v, want 2", s.Median())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	addAll(&s, 10, 20, 30, 40)
	// type-7 interpolation: p50 of [10,20,30,40] = 25.
	if got := s.Percentile(50); got != 25 {
		t.Fatalf("P50 = %v, want 25", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Fatalf("P0 = %v, want 10", got)
	}
	if got := s.Percentile(100); got != 40 {
		t.Fatalf("P100 = %v, want 40", got)
	}
}

func TestPercentileAfterInterleavedAdds(t *testing.T) {
	var s Sample
	addAll(&s, 5, 1)
	_ = s.Median() // force a sort
	s.Add(3)       // then add more
	if got := s.Median(); got != 3 {
		t.Fatalf("Median = %v, want 3", got)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	var s Sample
	s.Add(1)
	defer func() {
		if recover() == nil {
			t.Error("Percentile(101) did not panic")
		}
	}()
	s.Percentile(101)
}

func TestCDF(t *testing.T) {
	var s Sample
	addAll(&s, 1, 1, 2, 4)
	cdf := s.CDF()
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {4, 1.0}}
	if len(cdf) != len(want) {
		t.Fatalf("CDF has %d points, want %d", len(cdf), len(want))
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("CDF[%d] = %+v, want %+v", i, cdf[i], want[i])
		}
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := s.Percentile(p1), s.Percentile(p2)
		return v1 <= v2 && v1 >= s.xs[0] && v2 <= s.xs[len(s.xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF is monotone in both X and F and ends at F=1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
		}
		cdf := s.CDF()
		if s.N() == 0 {
			return cdf == nil
		}
		if cdf[len(cdf)-1].F != 1.0 {
			return false
		}
		return sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].X < cdf[j].X }) &&
			sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].F < cdf[j].F })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileAgainstSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Sample
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
		s.Add(xs[i])
	}
	sort.Float64s(xs)
	for _, p := range []float64{0, 25, 50, 75, 99, 100} {
		h := p / 100 * float64(len(xs)-1)
		lo, hi := int(math.Floor(h)), int(math.Ceil(h))
		want := xs[lo]
		if lo != hi {
			frac := h - float64(lo)
			want = xs[lo]*(1-frac) + xs[hi]*frac
		}
		if got := s.Percentile(p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("P%v = %v, want %v", p, got, want)
		}
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(0.001) // 1 ms bins
	ts.Record(0.0005, 100)
	ts.Record(0.0007, 50)
	ts.Record(0.0025, 300)
	if ts.NumBins() != 3 {
		t.Fatalf("NumBins = %d, want 3", ts.NumBins())
	}
	if got := ts.Rate(0); got != 150000 {
		t.Fatalf("Rate(0) = %v, want 150000", got)
	}
	if got := ts.Rate(1); got != 0 {
		t.Fatalf("Rate(1) = %v, want 0", got)
	}
	if got := ts.Rate(2); got != 300000 {
		t.Fatalf("Rate(2) = %v, want 300000", got)
	}
	if got := ts.Total(); got != 450 {
		t.Fatalf("Total = %v, want 450", got)
	}
	if got := ts.Rate(99); got != 0 {
		t.Fatalf("out-of-range Rate = %v, want 0", got)
	}
	rates := ts.Rates()
	if len(rates) != 3 || rates[2] != 300000 {
		t.Fatalf("Rates = %v", rates)
	}
}

func TestTimeSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive bin width did not panic")
		}
	}()
	NewTimeSeries(0)
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(1500)
	c.Add(64)
	if c.Packets != 2 || c.Bytes != 1564 {
		t.Fatalf("counter = %+v", c)
	}
}

// TestPercentileType7Pinned locks down the quantile semantics every figure
// is generated with: linear interpolation between closest ranks (type 7,
// the numpy/R default), NOT nearest-rank — the doc comment once claimed
// nearest-rank while the implementation interpolated. Each case includes a
// value where the two conventions disagree, so a silent switch of either
// the code or the doc breaks this test.
func TestPercentileType7Pinned(t *testing.T) {
	var quartiles Sample
	addAll(&quartiles, 10, 20, 30, 40)
	var decade Sample
	for i := 1; i <= 10; i++ {
		decade.Add(float64(i))
	}
	var centile Sample
	for i := 1; i <= 100; i++ {
		centile.Add(float64(i))
	}
	cases := []struct {
		name string
		s    *Sample
		p    float64
		want float64 // type-7; nearest-rank would differ where noted
	}{
		{"quartiles-p25", &quartiles, 25, 17.5}, // nearest-rank: 10
		{"quartiles-p50", &quartiles, 50, 25},   // nearest-rank: 20
		{"quartiles-p75", &quartiles, 75, 32.5}, // nearest-rank: 30
		{"quartiles-p10", &quartiles, 10, 13},
		{"decade-p90", &decade, 90, 9.1},     // nearest-rank: 9
		{"decade-p99", &decade, 99, 9.91},    // nearest-rank: 10
		{"centile-p99", &centile, 99, 99.01}, // nearest-rank: 99
		{"centile-p50", &centile, 50, 50.5},  // nearest-rank: 50
	}
	for _, c := range cases {
		if got := c.s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Percentile(%v) = %v, want type-7 value %v", c.name, c.p, got, c.want)
		}
	}
	// P99 and Median are aliases of the same interpolating quantile.
	if centile.P99() != centile.Percentile(99) || quartiles.Median() != 25 {
		t.Error("P99/Median do not alias the type-7 quantile")
	}
}
