package telemetry

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// populatedSketch returns a sketch fed n lognormal observations from the
// seeded stream, the shape a shard's FCT sketch has on the wire.
func populatedSketch(t *testing.T, alpha float64, seed int64, n int) *Sketch {
	t.Helper()
	s := NewSketch(alpha)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s.Add(math.Exp(rng.NormFloat64()*2 + 5))
	}
	return s
}

// roundTrip encodes c and decodes the bytes into a fresh Collector.
func roundTrip(t *testing.T, c *Collector) *Collector {
	t.Helper()
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Collector
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return &got
}

// holding returns a one-class collector at s's alpha whose class sketch
// is s: the wire form a sketch travels in.
func holding(s *Sketch) *Collector {
	c := NewCollector(Opts{Alpha: s.alpha}, 1)
	c.classes[0] = s
	return c
}

func roundTripSketch(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	return roundTrip(t, holding(s)).classes[0]
}

// sameSketch fails unless got reads out exactly as want does: count, sum,
// min, max, zero count, every quantile probe, and the encoding, which
// holds the bucket span and every count in it.
func sameSketch(t *testing.T, name string, got, want *Sketch) {
	t.Helper()
	if got.count != want.count || math.Float64bits(got.sum) != math.Float64bits(want.sum) ||
		got.min != want.min || got.max != want.max || got.zero != want.zero {
		t.Errorf("%s: count/sum/min/max/zero %d/%v/%v/%v/%d, want %d/%v/%v/%v/%d", name,
			got.count, got.sum, got.min, got.max, got.zero,
			want.count, want.sum, want.min, want.max, want.zero)
	}
	for _, q := range quantileProbes {
		if g, w := got.Quantile(q), want.Quantile(q); math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: Quantile(%v) = %v, want %v", name, q, g, w)
		}
	}
	a, _ := holding(got).MarshalBinary()
	b, _ := holding(want).MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Errorf("%s: encodes to\n%x\nwant\n%x", name, a, b)
	}
}

// sameCollector fails unless every class sketch and tag tally of got reads
// out as want's, its windows equal want's, and the two encode alike.
func sameCollector(t *testing.T, name string, got, want *Collector) {
	t.Helper()
	if len(got.classes) != len(want.classes) || len(got.tags) != len(want.tags) {
		t.Fatalf("%s: %d classes and %d tags, want %d and %d", name,
			len(got.classes), len(got.tags), len(want.classes), len(want.tags))
	}
	for i := range want.classes {
		sameSketch(t, fmt.Sprintf("%s class %d", name, i), got.classes[i], want.classes[i])
	}
	for tag, w := range want.tags {
		sameTally(t, name+" tag "+tag, got.tags[tag], w)
	}
	if !reflect.DeepEqual([]Window{got.delivered, got.goodput, got.uplink},
		[]Window{want.delivered, want.goodput, want.uplink}) {
		t.Errorf("%s: windows differ", name)
	}
	a, _ := got.MarshalBinary()
	b, _ := want.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Errorf("%s: encodings differ", name)
	}
}

// sameTally is sameSketch for a tag tally, plus its three totals.
func sameTally(t *testing.T, name string, got, want *TagTally) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing", name)
	}
	if got.Done != want.Done || got.Total != want.Total || got.Bytes != want.Bytes {
		t.Errorf("%s: done/total/bytes %d/%d/%d, want %d/%d/%d", name,
			got.Done, got.Total, got.Bytes, want.Done, want.Total, want.Bytes)
	}
	sameSketch(t, name, got.Sketch, want.Sketch)
}

func TestSketchCodecRoundTrip(t *testing.T) {
	for name, s := range map[string]*Sketch{
		"empty":     NewSketch(0.01),
		"populated": populatedSketch(t, 0.01, 1, 10_000),
		"zeroes": func() *Sketch {
			s := NewSketch(0.05)
			s.Add(0)
			s.Add(0)
			s.Add(3.5)
			return s
		}(),
		// Six decades apart: a span of mostly zeros.
		"sparse": func() *Sketch {
			s := NewSketch(0.01)
			s.Add(1)
			s.Add(1e6)
			return s
		}(),
	} {
		got := roundTripSketch(t, s)
		sameSketch(t, name, got, s)
		// Writing to a decoded sketch moves its counts into pages
		// without changing what it reads out.
		got.Add(42)
		s.Add(42)
		sameSketch(t, name+" after Add", got, s)
	}
}

func TestSketchCodecReencodeDeterministic(t *testing.T) {
	s := populatedSketch(t, 0.01, 7, 5_000)
	a, _ := holding(s).MarshalBinary()
	b, _ := holding(roundTripSketch(t, s)).MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatalf("re-encoding a decoded sketch changed the bytes")
	}
}

// TestSketchMergeAfterDecode is the property process sharding rests on:
// decode(encode(shard)) merged into a total is indistinguishable — the
// same counts, quantiles and encoding — from merging the in-process shard.
func TestSketchMergeAfterDecode(t *testing.T) {
	shardA := populatedSketch(t, 0.01, 1, 20_000)
	shardB := populatedSketch(t, 0.01, 2, 30_000)

	direct := NewSketch(0.01)
	direct.Merge(shardA)
	direct.Merge(shardB)

	wire := NewSketch(0.01)
	wire.Merge(roundTripSketch(t, shardA))
	wire.Merge(roundTripSketch(t, shardB))

	sameSketch(t, "merge after decode", wire, direct)
}

// populatedWindow returns a window fed n records; 1 000 of them wrap its
// ring.
func populatedWindow(seed int64, n int) Window {
	w := newWindow()
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.Float64() * 0.0005
		w.Record(t, float64(rng.Intn(9000)+64))
	}
	return w
}

func TestWindowCodecRoundTrip(t *testing.T) {
	for name, w := range map[string]Window{
		"empty":     newWindow(),
		"populated": populatedWindow(3, 1_000),
		"partial": func() Window {
			w := newWindow()
			w.Record(0.0015, 10)
			return w
		}(),
	} {
		c := NewCollector(Opts{}, 1)
		c.delivered = w
		if got := roundTrip(t, c).delivered; !reflect.DeepEqual(got, w) {
			t.Errorf("%s: decoded window differs: got %+v want %+v", name, got, w)
		}
	}
}

func TestTagTallyCodecRoundTrip(t *testing.T) {
	tt := &TagTally{Sketch: populatedSketch(t, 0.02, 4, 1_000), Done: 900, Total: 1_000, Bytes: 123_456_789}
	c := NewCollector(Opts{Alpha: 0.02}, 1)
	c.tags = map[string]*TagTally{"rpc": tt}
	sameTally(t, "rpc", roundTrip(t, c).tags["rpc"], tt)
}

// populatedCollector simulates a shard's collector: per-class FCTs, two
// tags, and throughput/tax windows.
func populatedCollector(seed int64, flows int) *Collector {
	c := NewCollector(Opts{}, 2)
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for i := 0; i < flows; i++ {
		t += rng.Float64() * 0.0002
		tag := ""
		if i%3 == 0 {
			tag = "shuffle"
		} else if i%3 == 1 {
			tag = "websearch"
		}
		c.FlowAdded(tag)
		fct := math.Exp(rng.NormFloat64() + 6)
		bytes := int64(rng.Intn(1_000_000) + 64)
		c.FlowDone(i%2, tag, fct, bytes)
		c.RecordDelivered(t, float64(bytes))
		c.RecordTax(t, float64(bytes), float64(bytes)*1.3)
	}
	return c
}

func TestCollectorCodecRoundTrip(t *testing.T) {
	for name, c := range map[string]*Collector{
		"empty":     NewCollector(Opts{}, 2),
		"populated": populatedCollector(5, 3_000),
		"custom":    NewCollector(Opts{Alpha: 0.05}, 3),
	} {
		data, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var got Collector
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		sameCollector(t, name, &got, c)
		// Deterministic encoding: same state, same bytes.
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding a decoded collector changed the bytes", name)
		}
	}
}

// TestCollectorMergeAfterDecode pins the sweep coordinator's core move:
// shard collectors round-tripped through the wire merge to exactly the
// state of merging the originals — and both equal the collector a single
// process feeding all observations would hold, because the underlying
// sketches and windows are insertion-order independent.
func TestCollectorMergeAfterDecode(t *testing.T) {
	shardA := populatedCollector(11, 2_000)
	shardB := populatedCollector(12, 3_000)

	direct := NewCollector(Opts{}, 2)
	if err := direct.Merge(shardA); err != nil {
		t.Fatal(err)
	}
	if err := direct.Merge(shardB); err != nil {
		t.Fatal(err)
	}

	decode := func(shard *Collector) *Collector {
		data, err := shard.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var decoded Collector
		if err := decoded.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		return &decoded
	}
	wire := NewCollector(Opts{}, 2)
	for _, shard := range []*Collector{shardA, shardB} {
		if err := wire.Merge(decode(shard)); err != nil {
			t.Fatal(err)
		}
	}
	sameCollector(t, "merge after decode", wire, direct)

	// Pooling into the first decoded shard, as a sweep's coordinator does.
	pooled := decode(shardA)
	if err := pooled.Merge(decode(shardB)); err != nil {
		t.Fatal(err)
	}
	sameCollector(t, "merge into a decoded shard", pooled, direct)
}

func TestCodecRejectsCorruptInput(t *testing.T) {
	good, err := populatedCollector(9, 500).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 1, 2, len(good) / 2, len(good) - 1} {
			var c Collector
			if err := c.UnmarshalBinary(good[:cut]); err == nil {
				t.Errorf("cut=%d: truncated encoding decoded without error", cut)
			}
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		var c Collector
		if err := c.UnmarshalBinary(append(append([]byte{}, good...), 0x00)); err == nil ||
			!errors.Is(err, ErrCorrupt) {
			t.Errorf("trailing byte: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("wrong-kind", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[0] = 'S'
		var c Collector
		if err := c.UnmarshalBinary(bad); err == nil || !errors.Is(err, ErrCodecVersion) {
			t.Errorf("kind 'S': got %v, want ErrCodecVersion", err)
		}
	})
	t.Run("future-version", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[1] = codecVersion + 1
		var c Collector
		if err := c.UnmarshalBinary(bad); err == nil || !errors.Is(err, ErrCodecVersion) {
			t.Errorf("future version: got %v, want ErrCodecVersion", err)
		}
	})
	t.Run("huge-count", func(t *testing.T) {
		// A class sketch claiming 2^40 buckets must fail the bounds check,
		// not attempt the allocation.
		w := wbuf{b: []byte{kindCollector, codecVersion}}
		w.f64(DefaultAlpha)
		w.uvarint(1) // one class
		w.uvarint(0) // count
		w.f64(0)     // sum
		w.f64(math.Inf(1))
		w.f64(math.Inf(-1))
		w.uvarint(0)       // zero
		w.varint(0)        // base
		w.uvarint(1 << 40) // buckets: absurd
		var c Collector
		if err := c.UnmarshalBinary(w.b); err == nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("huge bucket count: got %v, want ErrCorrupt", err)
		}
	})
}

// countBlob is a collector header declaring n classes, or no classes and
// n tags, then 100,000 zero bytes: room for 50,000 elements at two bytes
// each, but too few for that many at their smallest encodings.
func countBlob(n uint64, tags bool) []byte {
	w := wbuf{b: []byte{kindCollector, codecVersion}}
	w.f64(DefaultAlpha)
	if tags {
		w.uvarint(0)
	}
	w.uvarint(n)
	return append(w.b, make([]byte, 100_000)...)
}

// TestCodecBoundsCountsBySmallestEncoding: a blob declaring more classes
// or tags than its bytes can encode fails before allocating for them —
// less in all than its own length.
func TestCodecBoundsCountsBySmallestEncoding(t *testing.T) {
	for _, tags := range []bool{false, true} {
		blob := countBlob(50_000, tags)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var c Collector
		err := c.UnmarshalBinary(blob)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("tags=%v: got %v, want ErrCorrupt", tags, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(len(blob)) {
			t.Errorf("tags=%v: a %d B blob allocated %d B before failing", tags, len(blob), alloc)
		}
	}
}

// TestCollectorWireBytes pins the collector encoding — two classes, one
// tag, live window bins — and checks that the same collector's version-1
// bytes, which repeated the alpha in every sketch and the window geometry
// in every window, are refused as ErrCodecVersion.
func TestCollectorWireBytes(t *testing.T) {
	c := NewCollector(Opts{}, 2)
	c.FlowAdded("rpc")
	c.FlowAdded("rpc")
	c.FlowDone(0, "rpc", 120, 1500)
	c.FlowDone(1, "", 4000, 3_000_000)
	c.RecordDelivered(0.0005, 1500)
	c.RecordDelivered(0.0021, 3_000_000)
	c.RecordTax(0.0005, 1500, 3000)
	c.RecordTax(0.0021, 3_000_000, 6_000_000)
	const want = "43027b14ae47e17a843f02010000000000005e400000000000005e400000000000005e4000e00301" +
		"0101000000000040af40000000000040af40000000000040af4000be060101010372706301000000" +
		"0000005e400000000000005e400000000000005e4000e00301010204b81704000000004ee6464100" +
		"0000000070974000000000000000000000000060e3464104000000004ee646410000000000709740" +
		"00000000000000000000000060e3464104000000004ee65641000000000070a74000000000000000" +
		"000000000060e35641"
	got, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("collector encodes to\n%x\nwant\n%s", got, want)
	}

	v1, err := hex.DecodeString("43017b14ae47e17a843ffca9f1d24d62503f80020253017b14ae47e17a843f010000000000005e40" +
		"0000000000005e400000000000005e4000e003010153017b14ae47e17a843f01000000000040af40" +
		"000000000040af40000000000040af4000be0601010103727063540153017b14ae47e17a843f0100" +
		"00000000005e400000000000005e400000000000005e4000e00301010204b8175701fca9f1d24d62" +
		"503f800104000000004ee64641000000000070974000000000000000000000000060e346415701fc" +
		"a9f1d24d62503f800104000000004ee64641000000000070974000000000000000000000000060e3" +
		"46415701fca9f1d24d62503f800104000000004ee65641000000000070a740000000000000000000" +
		"00000060e35641")
	if err != nil {
		t.Fatal(err)
	}
	var old Collector
	if err := old.UnmarshalBinary(v1); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("version-1 bytes: got %v, want ErrCodecVersion", err)
	}
}

// oneBucketBlob encodes a one-class collector at DefaultAlpha whose class
// sketch holds one observation, counted in bucket idx.
func oneBucketBlob(idx int64) []byte {
	w := wbuf{b: []byte{kindCollector, codecVersion}}
	w.f64(DefaultAlpha)
	w.uvarint(1) // one class
	w.uvarint(1) // count
	w.f64(1)     // sum
	w.f64(1)     // min
	w.f64(1)     // max
	w.uvarint(0) // zero
	w.varint(idx)
	w.uvarint(1) // one bucket,
	w.uvarint(1) // holding the observation
	w.uvarint(0) // no tags
	empty := newWindow()
	for range 3 {
		empty.marshalTo(&w)
	}
	return w.b
}

// TestSketchRejectsBucketsOutsideIndexRange: a decoded sketch whose buckets
// lie beyond every index a float64 observation maps to is ErrCorrupt, so
// merging it cannot build a page table out to it; the end indices decode.
func TestSketchRejectsBucketsOutsideIndexRange(t *testing.T) {
	s := NewSketch(DefaultAlpha)
	lo, hi := int64(s.index(minIndexable)), int64(s.index(math.MaxFloat64))
	for _, idx := range []int64{lo - 1, hi + 1, lo - 1<<40, hi + 1<<40} {
		var got Collector
		if err := got.UnmarshalBinary(oneBucketBlob(idx)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bucket %d outside [%d, %d]: got %v, want ErrCorrupt", idx, lo, hi, err)
		}
	}
	for _, idx := range []int64{lo, hi} {
		var got Collector
		if err := got.UnmarshalBinary(oneBucketBlob(idx)); err != nil {
			t.Errorf("bucket %d: %v", idx, err)
		}
	}
}

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMergeFarApartSketchesIsBounded: two valid collectors whose one
// observation each sits near opposite ends of the decodable bucket range
// decode and merge within a page table and two pages, not the dense gap
// between them (1.5 MB at α = 1%, 16.8 MB at α = 0.1%).
func TestMergeFarApartSketchesIsBounded(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		bound uint64
	}{{0.01, 16 << 10}, {0.001, 128 << 10}} {
		var blobs [2][]byte
		for i, x := range []float64{2e-9, 1e300} {
			c := NewCollector(Opts{Alpha: tc.alpha}, 1)
			c.FlowDone(0, "", x, 0)
			blobs[i], _ = c.MarshalBinary()
		}
		var low, high Collector
		alloc := allocBytes(func() {
			if err := low.UnmarshalBinary(blobs[0]); err != nil {
				t.Fatal(err)
			}
			if err := high.UnmarshalBinary(blobs[1]); err != nil {
				t.Fatal(err)
			}
			if err := low.Merge(&high); err != nil {
				t.Fatal(err)
			}
		})
		if alloc > tc.bound {
			t.Errorf("alpha %v: decoding and merging allocated %d B (bound %d B)", tc.alpha, alloc, tc.bound)
		}
		t.Logf("alpha %v: decoding and merging allocated %d B", tc.alpha, alloc)
		if got := low.ClassSketch(0).Summary(); got.N != 2 || got.MaxUs != 1e300 {
			t.Errorf("alpha %v: merged sketch reads %+v", tc.alpha, got)
		}
	}
}

// TestSummaryAndWindowTax: the one readout agrees with the sketch's own
// accessors, is all zero when empty, and the window tax is uplink ÷ goodput
// − 1 over the trailing window.
func TestSummaryAndWindowTax(t *testing.T) {
	if got := NewSketch(0.01).Summary(); got != (Summary{}) {
		t.Fatalf("empty sketch summary = %+v, want zero", got)
	}
	s := populatedSketch(t, 0.01, 3, 2_000)
	want := Summary{N: int(s.count), MeanUs: s.Mean(), MaxUs: s.max,
		P50Us: s.Quantile(0.5), P90Us: s.Quantile(0.9), P99Us: s.Quantile(0.99), P999Us: s.Quantile(0.999)}
	if got := s.Summary(); got != want {
		t.Fatalf("Summary = %+v, want %+v", got, want)
	}

	c := NewCollector(Opts{}, 2)
	if tax := c.WindowTax(); tax != 0 {
		t.Fatalf("empty window tax = %v, want 0", tax)
	}
	c.RecordTax(0.001, 1000, 1500)
	c.RecordTax(0.002, 3000, 4500)
	if tax := c.WindowTax(); tax != 0.5 {
		t.Fatalf("window tax = %v, want 0.5", tax)
	}
}

// TestCodecErrorLeavesReceiverUntouched: a failed UnmarshalBinary must not
// half-overwrite a live collector the coordinator is merging into.
func TestCodecErrorLeavesReceiverUntouched(t *testing.T) {
	c := populatedCollector(21, 100)
	want, _ := c.MarshalBinary()
	bad, _ := populatedCollector(22, 100).MarshalBinary()
	if err := c.UnmarshalBinary(bad[:len(bad)-3]); err == nil {
		t.Fatal("truncated decode succeeded")
	}
	got, _ := c.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatal("failed decode mutated the receiver")
	}
}
