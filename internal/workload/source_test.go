package workload

import (
	"reflect"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
)

func testPoissonCfg(seed int64) PoissonConfig {
	return PoissonConfig{
		NumHosts:     64,
		Load:         0.1,
		LinkRateGbps: 10,
		Duration:     5 * eventsim.Millisecond,
		Dist:         Hadoop(),
		Seed:         seed,
	}
}

// The Poisson source is a pure function of its seed — same seed, same
// flows in the same order; another seed, another stream — since the figure
// sweeps run on it and their CSVs are pinned.
func TestPoissonSourceMatchesMaterialized(t *testing.T) {
	var prev []FlowSpec
	for _, seed := range []int64{1, 2, 7} {
		want := Drain(PoissonSource(testPoissonCfg(seed)))
		got := Drain(PoissonSource(testPoissonCfg(seed)))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: two drains of the source diverge (%d vs %d flows)", seed, len(want), len(got))
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: empty workload", seed)
		}
		if reflect.DeepEqual(want, prev) {
			t.Fatalf("seed %d: same stream as the previous seed", seed)
		}
		prev = want
	}
}

// Sources yield nondecreasing arrivals; FromSpecs establishes the order
// for unsorted inputs while preserving input order among ties.
func TestFromSpecsOrdersByArrival(t *testing.T) {
	specs := []FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1, Arrival: 300},
		{Src: 1, Dst: 2, Bytes: 2, Arrival: 100},
		{Src: 2, Dst: 3, Bytes: 3, Arrival: 100},
		{Src: 3, Dst: 4, Bytes: 4, Arrival: 0},
	}
	got := Drain(FromSpecs(specs))
	wantOrder := []int{3, 1, 2, 0} // by arrival, ties in input order
	for i, wi := range wantOrder {
		if got[i] != specs[wi] {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], specs[wi])
		}
	}
	// The input slice must be untouched (it may be shared across
	// concurrently running scenarios).
	if specs[0].Arrival != 300 || specs[3].Arrival != 0 {
		t.Fatal("FromSpecs mutated its input")
	}

	// Four specs never leave the library sort's insertion-sort block; a
	// few hundred drawn from a handful of arrival times put long runs of
	// ties through its partitioning, where only FromSpecs' index tie-break
	// keeps input order. Bytes carries the input index.
	arrivals := []eventsim.Time{700, 0, 300, 300, 1200, 0, 50}
	many := make([]FlowSpec, 500)
	for i := range many {
		many[i] = FlowSpec{Src: i % 7, Dst: i % 5, Bytes: int64(i), Arrival: arrivals[(i*i+i/3)%len(arrivals)]}
	}
	got = Drain(FromSpecs(many))
	if len(got) != len(many) {
		t.Fatalf("FromSpecs yielded %d of %d specs", len(got), len(many))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Arrival > b.Arrival || (a.Arrival == b.Arrival && a.Bytes >= b.Bytes) {
			t.Fatalf("position %d: %+v before %+v — not a stable sort by arrival", i, a, b)
		}
		if b != many[b.Bytes] {
			t.Fatalf("position %d: %+v is not input spec %d", i, b, b.Bytes)
		}
	}
}

func TestTakeUntilCapBytes(t *testing.T) {
	mk := func() Source { return PoissonSource(testPoissonCfg(1)) }
	all := Drain(mk())
	if got := Drain(Take(mk(), 5)); len(got) != 5 || !reflect.DeepEqual(got, all[:5]) {
		t.Fatalf("Take(5) = %d flows", len(got))
	}
	for _, f := range Drain(CapBytes(mk(), 10_000)) {
		if f.Bytes > 10_000 {
			t.Fatalf("CapBytes leaked %d bytes", f.Bytes)
		}
	}
}

func TestTagAndBulkSource(t *testing.T) {
	for _, f := range Drain(TagSource("x", BulkSource(Take(PoissonSource(testPoissonCfg(1)), 10)))) {
		if f.Tag != "x" || !f.Bulk {
			t.Fatalf("wrapper lost metadata: %+v", f)
		}
	}
}

// Mix assigns arrivals to components roughly by weight, carries their
// tags, and is deterministic per seed.
func TestMixWeightsAndDeterminism(t *testing.T) {
	cfg := testPoissonCfg(3)
	cfg.Duration = 20 * eventsim.Millisecond
	mk := func() Source {
		return Mix(cfg,
			MixComponent{Dist: Hadoop(), Weight: 3, Tag: "heavy"},
			MixComponent{Dist: Websearch(), Weight: 1, Tag: "light", Bulk: true},
		)
	}
	flows := Drain(mk())
	if !reflect.DeepEqual(flows, Drain(mk())) {
		t.Fatal("Mix not deterministic per seed")
	}
	var heavy, light int
	for _, f := range flows {
		switch f.Tag {
		case "heavy":
			heavy++
			if f.Bulk {
				t.Fatal("heavy component should not be bulk-tagged")
			}
		case "light":
			light++
			if !f.Bulk {
				t.Fatal("light component lost its bulk tag")
			}
		default:
			t.Fatalf("untagged flow %+v", f)
		}
	}
	if heavy == 0 || light == 0 {
		t.Fatalf("component counts heavy=%d light=%d", heavy, light)
	}
	ratio := float64(heavy) / float64(light)
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("weight ratio = %.2f, want ≈3", ratio)
	}
}

func TestIncast(t *testing.T) {
	flows := Drain(Incast(IncastConfig{
		NumHosts: 64, Fanin: 8, Bytes: 10_000,
		Period: eventsim.Millisecond, Bursts: 3, Seed: 1,
	}))
	if len(flows) != 24 {
		t.Fatalf("%d flows, want 3 bursts × 8", len(flows))
	}
	for b := 0; b < 3; b++ {
		burst := flows[b*8 : (b+1)*8]
		dst := burst[0].Dst
		seen := map[int]bool{}
		for _, f := range burst {
			// Bursts fire at Period, 2·Period, … (burst b is 1-indexed).
			if f.Arrival != eventsim.Time(b+1)*eventsim.Millisecond {
				t.Fatalf("burst %d arrival %v", b, f.Arrival)
			}
			if f.Dst != dst || f.Src == dst || seen[f.Src] {
				t.Fatalf("burst %d malformed flow %+v", b, f)
			}
			seen[f.Src] = true
		}
	}
}

func TestReplay(t *testing.T) {
	trace := `# comment
0 0 1 1000 web
500 1 2 2000
1500 2 3 3000 shuffle bulk
`
	rs := Replay(strings.NewReader(trace))
	flows := Drain(rs)
	if rs.Err() != nil {
		t.Fatal(rs.Err())
	}
	want := []FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1000, Arrival: 0, Tag: "web"},
		{Src: 1, Dst: 2, Bytes: 2000, Arrival: 500},
		{Src: 2, Dst: 3, Bytes: 3000, Arrival: 1500, Tag: "shuffle", Bulk: true},
	}
	if !reflect.DeepEqual(flows, want) {
		t.Fatalf("replay = %+v", flows)
	}
}

func TestReplayRejectsMalformedAndUnordered(t *testing.T) {
	for _, trace := range []string{
		"0 0 1\n",                    // too few fields
		"0 0 1 -5\n",                 // bad bytes
		"x 0 1 100\n",                // bad arrival
		"0 3 3 100\n",                // self-flow
		"500 0 1 100\n100 1 2 100\n", // arrivals regress
	} {
		rs := Replay(strings.NewReader(trace))
		Drain(rs)
		if rs.Err() == nil {
			t.Fatalf("trace %q: expected error", trace)
		}
	}
}
