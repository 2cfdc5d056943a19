package telemetry

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
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

func roundTripSketch(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return &got
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
	} {
		got := roundTripSketch(t, s)
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: decoded sketch differs: got %+v want %+v", name, got, s)
		}
	}
}

func TestSketchCodecReencodeDeterministic(t *testing.T) {
	s := populatedSketch(t, 0.01, 7, 5_000)
	a, _ := s.MarshalBinary()
	b, _ := roundTripSketch(t, s).MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatalf("re-encoding a decoded sketch changed the bytes")
	}
}

// TestSketchMergeAfterDecode is the property process sharding rests on:
// decode(encode(shard)) merged into a total is indistinguishable — deeply
// equal state, identical quantiles — from merging the in-process shard.
func TestSketchMergeAfterDecode(t *testing.T) {
	shardA := populatedSketch(t, 0.01, 1, 20_000)
	shardB := populatedSketch(t, 0.01, 2, 30_000)

	direct := NewSketch(0.01)
	direct.Merge(shardA)
	direct.Merge(shardB)

	wire := NewSketch(0.01)
	wire.Merge(roundTripSketch(t, shardA))
	wire.Merge(roundTripSketch(t, shardB))

	if !reflect.DeepEqual(wire, direct) {
		t.Fatalf("merge-after-decode state differs from direct merge")
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		if wire.Quantile(q) != direct.Quantile(q) {
			t.Fatalf("q%v: wire %v direct %v", q, wire.Quantile(q), direct.Quantile(q))
		}
	}
}

func populatedWindow(seed int64, n int) *Window {
	w := NewWindow(0.001, 64)
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.Float64() * 0.0005
		w.Record(t, float64(rng.Intn(9000)+64))
	}
	return w
}

func TestWindowCodecRoundTrip(t *testing.T) {
	for name, w := range map[string]*Window{
		"empty":     NewWindow(0.001, 128),
		"populated": populatedWindow(3, 500),
		"partial": func() *Window {
			w := NewWindow(0.01, 16)
			w.Record(0.015, 10)
			return w
		}(),
	} {
		data, err := w.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var got Window
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(&got, w) {
			t.Errorf("%s: decoded window differs: got %+v want %+v", name, &got, w)
		}
	}
}

func TestTagTallyCodecRoundTrip(t *testing.T) {
	tt := &TagTally{Sketch: populatedSketch(t, 0.02, 4, 1_000), Done: 900, Total: 1_000, Bytes: 123_456_789}
	data, err := tt.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got TagTally
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(&got, tt) {
		t.Errorf("decoded tally differs: got %+v want %+v", &got, tt)
	}
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
		if !reflect.DeepEqual(&got, c) {
			t.Errorf("%s: decoded collector differs from original", name)
		}
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

	wire := NewCollector(Opts{}, 2)
	for _, shard := range []*Collector{shardA, shardB} {
		data, err := shard.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var decoded Collector
		if err := decoded.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if err := wire.Merge(&decoded); err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(wire, direct) {
		t.Fatalf("merge-after-decode collector differs from direct merge")
	}
	a, _ := wire.MarshalBinary()
	b, _ := direct.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatalf("merged encodings differ")
	}
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
		var s Sketch
		if err := s.UnmarshalBinary(good); err == nil || !errors.Is(err, ErrCodecVersion) {
			t.Errorf("collector bytes into sketch: got %v, want ErrCodecVersion", err)
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
		// A sketch claiming 2^40 buckets must fail the bounds check, not
		// attempt the allocation.
		var w wbuf
		w.header(kindSketch)
		w.f64(0.01)
		w.uvarint(0) // count
		w.f64(0)     // sum
		w.f64(math.Inf(1))
		w.f64(math.Inf(-1))
		w.uvarint(0)       // zero
		w.varint(0)        // base
		w.uvarint(1 << 40) // buckets: absurd
		var s Sketch
		if err := s.UnmarshalBinary(w.b); err == nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("huge bucket count: got %v, want ErrCorrupt", err)
		}
	})
}

// TestCollectorWireBytes pins the collector encoding — two classes, one
// tag, live window bins — to the bytes it had when the window geometry was
// still an option: the geometry slots carry 0.001 s and 128, so sweep
// worker frames written then and now are interchangeable.
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
	const want = "43017b14ae47e17a843ffca9f1d24d62503f80020253017b14ae47e17a843f010000000000005e40" +
		"0000000000005e400000000000005e4000e003010153017b14ae47e17a843f01000000000040af40" +
		"000000000040af40000000000040af4000be0601010103727063540153017b14ae47e17a843f0100" +
		"00000000005e400000000000005e400000000000005e4000e00301010204b8175701fca9f1d24d62" +
		"503f800104000000004ee64641000000000070974000000000000000000000000060e346415701fc" +
		"a9f1d24d62503f800104000000004ee64641000000000070974000000000000000000000000060e3" +
		"46415701fca9f1d24d62503f800104000000004ee65641000000000070a740000000000000000000" +
		"00000060e35641"
	got, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("collector encodes to\n%x\nwant\n%s", got, want)
	}
}

// TestCollectorRejectsOtherWindowGeometry: an empty two-class collector
// encoded with 2 ms × 32 windows, as the window options could once produce,
// fails to decode with a named ErrCorrupt rather than merging wrongly.
func TestCollectorRejectsOtherWindowGeometry(t *testing.T) {
	blob, err := hex.DecodeString("43017b14ae47e17a843ffca9f1d24d62603f400253017b14ae47e17a843f00" +
		"0000000000000000000000000000f07f000000000000f0ff00000053017b14ae47e17a843f0000" +
		"00000000000000000000000000f07f000000000000f0ff000000005701fca9f1d24d62603f2001" +
		"00000000000000005701fca9f1d24d62603f200100000000000000005701fca9f1d24d62603f20" +
		"010000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	var c Collector
	err = c.UnmarshalBinary(blob)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "0.002 s × 32 bins") {
		t.Fatalf("2 ms × 32 collector: got %v, want ErrCorrupt naming the geometry", err)
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
	want := Summary{N: s.Count(), Mean: s.Mean(), Max: s.Max(),
		P50: s.Quantile(0.5), P90: s.Quantile(0.9), P99: s.Quantile(0.99), P999: s.Quantile(0.999)}
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
