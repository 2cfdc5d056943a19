package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/opera-net/opera/internal/eventsim"
)

func TestDistributionsValid(t *testing.T) {
	for _, d := range []*FlowSizeDist{Datamining(), Websearch(), Hadoop()} {
		a := d.Anchors()
		if a[len(a)-1].F != 1 {
			t.Fatalf("%s: CDF does not reach 1", d.Name)
		}
	}
}

func TestNewFlowSizeDistRejects(t *testing.T) {
	bad := [][]CDFAnchor{
		{{100, 0}},               // too few
		{{100, 0}, {50, 1}},      // non-monotone sizes
		{{100, 0.5}, {200, 0.2}}, // non-monotone F
		{{-5, 0}, {200, 1}},      // negative size
		{{100, 0}, {200, 0.9}},   // doesn't reach 1
		{{100, 0}, {200, 1.5}},   // F out of range
	}
	for i, anchors := range bad {
		if _, err := NewFlowSizeDist("bad", anchors); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// cdf evaluates d's P(size <= x), interpolating in log-size between
// anchors: the inverse Quantile is checked against.
func cdf(d *FlowSizeDist, x float64) float64 {
	a := d.anchors
	if x < a[0].Bytes {
		return 0
	}
	if x >= a[len(a)-1].Bytes {
		return 1
	}
	i := sort.Search(len(a), func(i int) bool { return a[i].Bytes >= x })
	if i == 0 {
		return a[0].F
	}
	lo, hi := a[i-1], a[i]
	t := (math.Log(x) - math.Log(lo.Bytes)) / (math.Log(hi.Bytes) - math.Log(lo.Bytes))
	return lo.F + t*(hi.F-lo.F)
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	for _, d := range []*FlowSizeDist{Datamining(), Websearch(), Hadoop()} {
		for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.99} {
			x := d.Quantile(p)
			back := cdf(d, float64(x))
			if math.Abs(back-p) > 0.02 {
				t.Errorf("%s: cdf(Quantile(%v)) = %v", d.Name, p, back)
			}
		}
	}
}

func TestPaperWorkloadShapes(t *testing.T) {
	// §5.1: with the 15 MB threshold, only a small fraction of Datamining
	// bytes is low-latency (the paper measures 4% of traffic indirect).
	dm := Datamining()
	if frac := dm.ByteFractionBelow(15e6); frac > 0.25 {
		t.Errorf("datamining bytes below 15MB = %v, want small", frac)
	}
	// §5.3: Websearch is the all-indirect worst case — bytes below 15 MB
	// dominate (the tail tops out at 30 MB).
	ws := Websearch()
	if frac := ws.ByteFractionBelow(15e6); frac < 0.7 {
		t.Errorf("websearch bytes below 15MB = %v, want dominant", frac)
	}
	// §5.2: Hadoop median inter-rack flow ≈ 100 KB.
	hd := Hadoop()
	med := hd.Quantile(0.5)
	if med < 50_000 || med > 200_000 {
		t.Errorf("hadoop median = %d, want ≈100KB", med)
	}
	// Figure 1 ranges: Datamining spans 100 B .. 1 GB.
	if dm.Quantile(0) != 100 || dm.Quantile(1) != 1e9 {
		t.Errorf("datamining range [%d, %d]", dm.Quantile(0), dm.Quantile(1))
	}
}

func TestFixedDist(t *testing.T) {
	// The one-point distribution tests build: every sample is the size.
	d := MustNewFlowSizeDist("fixed", []CDFAnchor{{100_000 * (1 - 1e-9), 0}, {100_000, 1}})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if s := d.Sample(rng); s != 100_000 {
			t.Fatalf("fixed sample = %d", s)
		}
	}
}

// Property: sampling stays within the anchor range and respects rough
// quantile ordering.
func TestSampleRangeProperty(t *testing.T) {
	dists := []*FlowSizeDist{Datamining(), Websearch(), Hadoop()}
	f := func(seed int64, which uint8) bool {
		d := dists[int(which)%len(dists)]
		rng := rand.New(rand.NewSource(seed))
		a := d.Anchors()
		lo, hi := int64(a[0].Bytes), int64(a[len(a)-1].Bytes)
		for i := 0; i < 50; i++ {
			s := d.Sample(rng)
			if s < lo || s > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleMatchesCDF(t *testing.T) {
	// Empirical check: fraction of samples ≤ median ≈ 0.5.
	d := Websearch()
	rng := rand.New(rand.NewSource(42))
	med := float64(d.Quantile(0.5))
	n, below := 20000, 0
	for i := 0; i < n; i++ {
		if float64(d.Sample(rng)) <= med {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("P(X <= median) = %v", frac)
	}
}

func TestPoissonLoad(t *testing.T) {
	cfg := PoissonConfig{
		NumHosts:     64,
		Load:         0.10,
		LinkRateGbps: 10,
		Duration:     50 * eventsim.Millisecond,
		Seed:         1,
	}
	flows := Drain(Mix(cfg, MixComponent{Dist: Websearch(), Weight: 1}))
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	var bytes float64
	for _, f := range flows {
		bytes += float64(f.Bytes)
		if f.Src == f.Dst {
			t.Fatal("self flow")
		}
		if f.Arrival < 0 || f.Arrival >= cfg.Duration {
			t.Fatalf("arrival %v outside window", f.Arrival)
		}
	}
	// Offered bits should be ≈ load × hosts × rate × duration.
	want := 0.10 * 64 * 10e9 * 0.050
	got := bytes * 8
	if got < 0.7*want || got > 1.3*want {
		t.Fatalf("offered bits = %.3g, want ≈ %.3g", got, want)
	}
}

func TestShuffle(t *testing.T) {
	flows := Shuffle(8, 100_000, 0, 1)
	if len(flows) != 8*7 {
		t.Fatalf("%d flows, want 56", len(flows))
	}
	for _, f := range flows {
		if f.Arrival != 0 || f.Bytes != 100_000 {
			t.Fatalf("bad flow %+v", f)
		}
	}
	staggered := Shuffle(8, 100_000, 10*eventsim.Millisecond, 1)
	var nonzero int
	for _, f := range staggered {
		if f.Arrival > 0 {
			nonzero++
		}
		if f.Arrival >= 10*eventsim.Millisecond {
			t.Fatal("stagger out of range")
		}
	}
	if nonzero == 0 {
		t.Fatal("stagger had no effect")
	}
}

func TestPermutation(t *testing.T) {
	flows := Permutation(32, 4, 1000, 3)
	if len(flows) != 32 {
		t.Fatalf("%d flows", len(flows))
	}
	seenDst := map[int]bool{}
	for _, f := range flows {
		if f.Src/4 == f.Dst/4 {
			t.Fatal("rack-local pair in permutation")
		}
		if seenDst[f.Dst] {
			t.Fatal("destination used twice")
		}
		seenDst[f.Dst] = true
	}
}

func TestHotRack(t *testing.T) {
	flows := HotRack(6, 5000)
	if len(flows) != 6 {
		t.Fatalf("%d flows", len(flows))
	}
	for i, f := range flows {
		if f.Src != i || f.Dst != 6+i {
			t.Fatalf("bad hot-rack flow %+v", f)
		}
	}
}

func TestSkew(t *testing.T) {
	flows := Skew(20, 4, 0.2, 1000, 4)
	// 4 active racks → 4×3 rack pairs × 4 hosts.
	if len(flows) != 4*3*4 {
		t.Fatalf("%d flows, want 48", len(flows))
	}
	racks := map[int]bool{}
	for _, f := range flows {
		racks[f.Src/4] = true
	}
	if len(racks) != 4 {
		t.Fatalf("%d active racks, want 4", len(racks))
	}
}
